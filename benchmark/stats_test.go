package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if got := spread([]float64{120, 80, 100, 110, 90}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2 (quartiles 90 and 110 over median 100)", got)
	}
}

// A session belongs to the window it completed in, the warm-up is dropped,
// and a reported value is the better quartile of the windows, so a
// disturbed window does not move it.
func TestWindowsAndBetterQuartile(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l := load{marks: []mark{{at: at(0)}, {at: at(100)}, {at: at(200)}, {at: at(300)}, {at: at(400)}}}
	add := func(startMs, durMs int) {
		l.samples = append(l.samples, sample{at(startMs), time.Duration(durMs) * time.Millisecond})
	}
	add(10, 50)  // warm-up: dropped
	add(90, 20)  // starts in the warm-up, completes in window 1
	add(120, 10) // window 1
	for i := 0; i < 4; i++ {
		add(210+10*i, 5) // window 2
	}
	add(310, 80) // window 3, slow (disturbed)
	add(395, 10) // completes after the last mark: dropped
	ws := l.windows()
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3", len(ws))
	}
	if ws[0].uploads != 2 || ws[1].uploads != 4 || ws[2].uploads != 1 {
		t.Fatalf("uploads per window %d %d %d, want 2 4 1", ws[0].uploads, ws[1].uploads, ws[2].uploads)
	}
	p50s := column(ws, func(s windowStats) float64 { return s.p50 })
	if want := []float64{20, 5, 80}; p50s[0] != want[0] || p50s[1] != want[1] || p50s[2] != want[2] {
		t.Fatalf("window p50s %v ms, want %v", p50s, want)
	}
	if got := betterQuartile([]float64{9, 7, 30, 8, 6, 40, 7.5, 8.5, 9.5}, "lower"); got != 7.5 {
		t.Errorf("better quartile (lower) = %v, want 7.5", got)
	}
	if got := betterQuartile([]float64{100, 60, 98, 102, 99, 50, 101, 97, 96}, "higher"); got != 100 {
		t.Errorf("better quartile (higher) = %v, want 100", got)
	}
	if got := ws[1].rate; math.Abs(got-40) > 1e-9 {
		t.Errorf("window 2 rate = %v/s, want 40", got)
	}
}

func TestVerdict(t *testing.T) {
	higher, lower := e2eMetric{"r", "1/s", "higher", 0.10}, e2eMetric{"l", "ms", "lower", 0.10}
	for _, c := range []struct {
		m            e2eMetric
		a, b, sa, sb float64
		want         string
	}{
		{higher, 100, 95, 0.02, 0.02, "ok"},
		{higher, 100, 85, 0.02, 0.02, "worse"},
		{higher, 100, 85, 0.02, 0.15, "unresolved"},
		{lower, 10, 10.5, 0, 0, "ok"},
		{lower, 10, 11.5, 0, 0, "worse"},
		{lower, 10, 5, 0.3, 0, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spreads %v %v) = %s, want %s", c.m.Better, c.a, c.b, c.sa, c.sb, got, c.want)
		}
	}
}
