package core

import (
	"testing"

	"repro/internal/dp"
)

func TestDPTrainingStillLearns(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.MaxServerUpdates = 100
	cfg.EvalSeqs = w.eval
	cfg.DP = &dp.Config{Clip: 1.0, NoiseMultiplier: 0.3, Delta: 1e-6, Seed: 5}
	res := Run(w.model, w.corpus, w.pop, cfg)
	first := res.LossCurve[0].V
	last := res.FinalLoss
	if last >= first-0.1 {
		t.Fatalf("DP training did not learn: %.3f -> %.3f", first, last)
	}
	if res.DPEpsilon <= 0 {
		t.Fatalf("DPEpsilon = %v, want > 0", res.DPEpsilon)
	}
	if res.DPDelta != 1e-6 {
		t.Fatalf("DPDelta = %v", res.DPDelta)
	}
}

func TestDPNoiseHurtsUtility(t *testing.T) {
	w := newTestWorld()
	run := func(z float64) float64 {
		cfg := asyncCfg()
		cfg.MaxServerUpdates = 60
		cfg.EvalSeqs = w.eval
		if z > 0 {
			cfg.DP = &dp.Config{Clip: 1.0, NoiseMultiplier: z, Delta: 1e-6, Seed: 5}
		}
		return Run(w.model, w.corpus, w.pop, cfg).FinalLoss
	}
	clean := run(0)
	noisy := run(8.0) // absurdly high noise must visibly hurt
	if noisy <= clean {
		t.Fatalf("extreme DP noise did not hurt: clean=%.3f noisy=%.3f", clean, noisy)
	}
}

func TestDPEpsilonGrowsWithUpdates(t *testing.T) {
	w := newTestWorld()
	eps := func(updates int) float64 {
		cfg := asyncCfg()
		cfg.MaxServerUpdates = updates
		cfg.DP = &dp.Config{Clip: 1.0, NoiseMultiplier: 1.0, Delta: 1e-6, Seed: 5}
		return Run(w.model, w.corpus, w.pop, cfg).DPEpsilon
	}
	if e20, e40 := eps(20), eps(40); e40 <= e20 {
		t.Fatalf("epsilon did not grow with releases: %v vs %v", e20, e40)
	}
}

func TestDPConfigValidation(t *testing.T) {
	cfg := asyncCfg()
	cfg.DP = &dp.Config{} // invalid
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid DP config accepted")
	}
	cfg = asyncCfg()
	cfg.DP = &dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6}
	cfg.NoTraining = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("DP with NoTraining accepted")
	}
}

// TestSimulatorStopsAtEpsilonBudget pins the simulator to the budget the
// networked aggregator enforces: a release that would exceed the epsilon
// budget is refused, the run halts, and the spent epsilon stays within it.
func TestSimulatorStopsAtEpsilonBudget(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.MaxServerUpdates = 20
	dpc := dp.Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6, Seed: 5}
	budget := dp.New(dpc).EpsilonAfter(3) + 1e-9
	dpc.EpsilonBudget = budget
	cfg.DP = &dpc
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.ServerUpdates != 3 {
		t.Errorf("ServerUpdates = %d, want 3 (the budget covers three releases)", res.ServerUpdates)
	}
	if res.DPEpsilon > budget {
		t.Errorf("DPEpsilon = %.2f, over the budget %.2f", res.DPEpsilon, budget)
	}
}
