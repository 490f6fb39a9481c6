package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fedopt"
)

// sim_fedbuff: core.Run on the paper-scale world. There is no transport
// and no session, so the shared end-to-end names read as follows here
// (README, "sim_fedbuff"): an upload is one client update received
// (CommTrips), a "session" is the wall time between two consecutive server
// updates (100 client updates each), and wire_bytes_per_upload is the
// model volume one simulated participation moves (download + upload),
// computed, not measured.

// stepClock wraps the server optimizer, the one per-update call core.Run
// makes into caller-supplied code, to timestamp every server update.
type stepClock struct {
	fedopt.Optimizer
	at []time.Time
}

func (s *stepClock) Step(params, update []float32) {
	s.Optimizer.Step(params, update)
	s.at = append(s.at, time.Now())
}

func simWorld(seed uint64) *experiments.World {
	s := experiments.ScalePaper()
	s.Seed = seed
	return experiments.BuildWorld(s)
}

func simConfig(w *experiments.World, seed uint64, updates, workers int) core.Config {
	return core.Config{
		Algorithm: core.Async, Concurrency: simConcurrency, AggregationGoal: simGoal,
		Seed: seed, EvalSeqs: w.Eval, EvalEvery: 10, TargetLoss: simTargetLoss,
		MaxServerUpdates: updates, Workers: workers,
	}
}

// simSetup is the simulator's set-up: build the world and bring the
// engine to its first server update.
func simSetup(seed uint64) *experiments.World {
	w := simWorld(seed)
	core.Run(w.Model, w.Corpus, w.Pop, simConfig(w, seed, 1, 0))
	return w
}

// simRep is one repetition of the full run.
type simRep struct {
	res   *core.Result
	stats windowStats
}

func runSimRep(w *experiments.World, seed uint64) simRep {
	cfg := simConfig(w, seed, simMaxUpdates, 0)
	clock := &stepClock{Optimizer: fedopt.DefaultFedAdam()}
	cfg.Server = clock
	a := takeMark(nil)
	res := core.Run(w.Model, w.Corpus, w.Pop, cfg)
	b := takeMark(nil)

	var gaps []float64
	for i := 1; i < len(clock.at); i++ {
		gaps = append(gaps, float64(clock.at[i].Sub(clock.at[i-1]))/float64(time.Millisecond))
	}
	secs, n := b.at.Sub(a.at).Seconds(), float64(res.CommTrips)
	return simRep{res: res, stats: windowStats{
		uploads:       int(res.CommTrips),
		rate:          n / secs,
		p50:           percentile(gaps, 0.50),
		p90:           percentile(gaps, 0.90),
		cpuMs:         float64(b.cpu-a.cpu) / float64(time.Millisecond) / n,
		wire:          float64(2 * 4 * w.Model.NumParams()),
		allocs:        float64(b.mallocs-a.mallocs) / n,
		allocKB:       float64(b.allocBytes-a.allocBytes) / 1024 / n,
		gcPauseMsPerS: float64(b.pauseNs-a.pauseNs) / 1e6 / secs,
		gcPerS:        float64(b.numGC-a.numGC) / secs,
	}}
}

// simHours is the simulated time to the target loss, or the whole run's
// simulated length when the target was not reached.
func simHours(res *core.Result) (hours float64, reached bool) {
	if res.TargetReached {
		return res.TimeToTargetHours(), true
	}
	return res.Hours(), false
}

// simSpeedup runs 60 server updates at Workers 1 and at GOMAXPROCS: the
// parallel engine's wall-clock ratio, and whether both trained the same
// bits.
func simSpeedup(w *experiments.World, seed uint64) (speedup float64, stable bool) {
	wall := func(workers int) (time.Duration, uint64) {
		start := time.Now()
		res := core.Run(w.Model, w.Corpus, w.Pop, simConfig(w, seed, 60, workers))
		return time.Since(start), res.FinalParamsHash()
	}
	serial, h1 := wall(1)
	parallel, hn := wall(runtime.GOMAXPROCS(0))
	return float64(serial) / float64(parallel), h1 == hn
}

// simHashGate checks the determinism contract across repetitions.
func simHashGate(reps []simRep) gate {
	first := reps[0].res.FinalParamsHash()
	for _, r := range reps[1:] {
		if h := r.res.FinalParamsHash(); h != first {
			return check("params-hash", false, "repetitions diverged: %#x vs %#x", first, h)
		}
	}
	return check("params-hash", true, "%d repetitions trained %#x", len(reps), first)
}

func simSummary(res *core.Result) string {
	h, reached := simHours(res)
	return fmt.Sprintf("%d server updates, %d client updates, %.4f simulated h (target %.4f reached: %v), final eval loss %.4f",
		res.ServerUpdates, res.CommTrips, h, simTargetLoss, reached, res.FinalLoss)
}
