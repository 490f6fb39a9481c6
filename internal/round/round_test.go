package round

import (
	"testing"

	"repro/internal/dp"
	"repro/internal/fedopt"
)

// TestReleaseOrder pins the release: the drained callback runs once, after
// the drain (later adds land in the next release), and the step sees the
// weighted mean after the rule's Transform.
func TestReleaseOrder(t *testing.T) {
	s := New(2, 2, 4, fedopt.NewFedProx(1), fedopt.NewFedSGD(1), nil)
	s.Buf.Add([]float32{1, 0}, 1, 0)
	s.Buf.Add([]float32{4, 2}, 3, 1)
	params := []float32{10, 10}
	calls := 0
	if !s.Release(params, func() {
		calls++
		if n := s.Buf.Count(); n != 0 {
			t.Errorf("drained called with %d updates still buffered", n)
		}
	}) {
		t.Fatal("release refused without DP")
	}
	if calls != 1 {
		t.Fatalf("drained called %d times, want 1", calls)
	}
	// Mean (1*[1,0] + 3*[4,2]) / 4 = [3.25, 1.5], damped by 1/(1+1).
	if params[0] != 10+3.25/2 || params[1] != 10+1.5/2 {
		t.Fatalf("params = %v, want [11.625 10.75]", params)
	}
}

// TestReleaseRefusedDrainsNothing pins the budget check: a release one more
// of which would exceed the epsilon budget drains nothing, never calls
// drained, and leaves the model and the accountant untouched.
func TestReleaseRefusedDrainsNothing(t *testing.T) {
	cfg := dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: 3}
	cfg.EpsilonBudget = dp.New(cfg).EpsilonAfter(1) + 1e-9
	s := New(1, 1, 1, fedopt.DefaultAggregation(), fedopt.NewFedSGD(1), &cfg)
	params := []float32{0}
	s.Buf.Add([]float32{1}, 1, 0)
	if !s.Release(params, nil) {
		t.Fatal("first release refused inside the budget")
	}
	s.Buf.Add([]float32{1}, 1, 0)
	before := params[0]
	if s.Release(params, func() { t.Error("drained called on a refused release") }) {
		t.Fatal("second release allowed past the budget")
	}
	if s.Buf.Count() != 1 || params[0] != before || s.DP.Releases() != 1 {
		t.Fatalf("refused release changed state: count %d, params %v, releases %d",
			s.Buf.Count(), params, s.DP.Releases())
	}
}

// TestReleaseFromRefusesDP pins that a DP stage has no un-noised release.
func TestReleaseFromRefusesDP(t *testing.T) {
	s := New(1, 1, 1, fedopt.DefaultAggregation(), fedopt.NewFedSGD(1),
		&dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("ReleaseFrom ran on a DP stage")
		}
	}()
	_ = s.ReleaseFrom([]float32{0}, func([]float32) error { return nil })
}
