package core

import (
	"math"
	"testing"

	"repro/internal/fedopt"
	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/stats"
)

// testWorld bundles a small model/corpus/population fixture.
type testWorld struct {
	model  nn.Model
	corpus *lmdata.Corpus
	pop    *population.Population
	eval   [][]int
}

func newTestWorld() *testWorld {
	corpusCfg := lmdata.Config{
		VocabSize: 16, NumDialects: 4, Seed: 3,
		SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	}
	corpus := lmdata.NewCorpus(corpusCfg)
	popCfg := population.DefaultConfig()
	popCfg.Size = 200_000
	popCfg.NumDialects = corpusCfg.NumDialects
	pop := population.New(popCfg)
	return &testWorld{
		model:  nn.NewBilinear(16, 4),
		corpus: corpus,
		pop:    pop,
		eval:   corpus.EvalSet(0, 0.5, 50, "core-test"),
	}
}

func asyncCfg() Config {
	return Config{
		Algorithm:        Async,
		Concurrency:      40,
		AggregationGoal:  10,
		Seed:             1,
		EvalEvery:        5,
		MaxServerUpdates: 40,
	}
}

func syncCfg() Config {
	return Config{
		Algorithm:        Sync,
		Concurrency:      40,
		OverSelection:    0.3,
		Seed:             1,
		EvalEvery:        2,
		MaxServerUpdates: 10,
	}
}

func TestValidateDefaults(t *testing.T) {
	cfg := asyncCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Server == nil || cfg.AggShards != 8 ||
		cfg.SelectionDelayMean != 1 || cfg.Client.BatchSize == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

func TestValidateSyncGoalDerivation(t *testing.T) {
	cfg := syncCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// 40 / 1.3 = 30.8 -> 31
	if cfg.AggregationGoal != 31 {
		t.Fatalf("derived goal = %d, want 31", cfg.AggregationGoal)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Algorithm = "bogus" },
		func(c *Config) { c.Concurrency = 0 },
		func(c *Config) { c.OverSelection = -0.1 },
		func(c *Config) { c.AggregationGoal = 0; c.Algorithm = Async },
		func(c *Config) { c.MaxStaleness = -1 },
		func(c *Config) { c.SelectionDelayMean = -1 },
		func(c *Config) { c.EvalEvery = -1 },
		func(c *Config) { c.AggShards = -1 },
		func(c *Config) {
			c.MaxServerUpdates, c.MaxClientUpdates, c.MaxSimTime = 0, 0, 0
		},
	}
	for i, mutate := range mutations {
		cfg := asyncCfg()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	// Sync goal above concurrency.
	cfg := syncCfg()
	cfg.AggregationGoal = 100
	if err := cfg.Validate(); err == nil {
		t.Fatal("sync goal > concurrency accepted")
	}
}

func TestAsyncRunProducesUpdates(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.EvalSeqs = w.eval
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.ServerUpdates != cfg.MaxServerUpdates {
		t.Fatalf("ServerUpdates = %d, want %d", res.ServerUpdates, cfg.MaxServerUpdates)
	}
	if res.CommTrips < int64(res.ServerUpdates*10) {
		t.Fatalf("CommTrips = %d inconsistent with %d updates of goal 10",
			res.CommTrips, res.ServerUpdates)
	}
	if res.SimSeconds <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if len(res.LossCurve) == 0 {
		t.Fatal("no loss curve recorded")
	}
	if res.FinalParams == nil {
		t.Fatal("no final params")
	}
}

func TestAsyncLossDecreases(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.MaxServerUpdates = 120
	cfg.EvalSeqs = w.eval
	res := Run(w.model, w.corpus, w.pop, cfg)
	first := res.LossCurve[0].V
	last := res.LossCurve[len(res.LossCurve)-1].V
	if last >= first-0.15 {
		t.Fatalf("async training did not learn: first=%.3f last=%.3f", first, last)
	}
}

func TestSyncLossDecreases(t *testing.T) {
	w := newTestWorld()
	cfg := syncCfg()
	cfg.MaxServerUpdates = 25
	cfg.EvalSeqs = w.eval
	res := Run(w.model, w.corpus, w.pop, cfg)
	first := res.LossCurve[0].V
	last := res.LossCurve[len(res.LossCurve)-1].V
	if last >= first-0.1 {
		t.Fatalf("sync training did not learn: first=%.3f last=%.3f", first, last)
	}
	if len(res.RoundDurations) != res.ServerUpdates {
		t.Fatalf("round durations %d != server updates %d",
			len(res.RoundDurations), res.ServerUpdates)
	}
}

func TestDeterminism(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.EvalSeqs = w.eval
	a := Run(w.model, w.corpus, w.pop, cfg)
	b := Run(w.model, w.corpus, w.pop, cfg)
	if a.CommTrips != b.CommTrips || a.ServerUpdates != b.ServerUpdates ||
		a.SimSeconds != b.SimSeconds || a.FinalLoss != b.FinalLoss {
		t.Fatalf("runs with same seed differ: %+v vs %+v", a.CommTrips, b.CommTrips)
	}
	cfg.Seed = 99
	c := Run(w.model, w.corpus, w.pop, cfg)
	if c.SimSeconds == a.SimSeconds && c.FinalLoss == a.FinalLoss {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSyncOverSelectionDiscards(t *testing.T) {
	w := newTestWorld()
	cfg := syncCfg()
	cfg.NoTraining = true
	cfg.MaxServerUpdates = 20
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.Discarded == 0 {
		t.Fatal("over-selection produced no discards")
	}
	// Received exactly goal per round.
	if res.CommTrips != int64(res.ServerUpdates*res.Goal) {
		t.Fatalf("CommTrips = %d, want %d", res.CommTrips, res.ServerUpdates*res.Goal)
	}
}

func TestSyncWithoutOverSelectionNoDiscards(t *testing.T) {
	w := newTestWorld()
	cfg := syncCfg()
	cfg.OverSelection = 0
	cfg.AggregationGoal = 0 // re-derive: goal = concurrency
	cfg.NoTraining = true
	cfg.MaxServerUpdates = 5
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.Goal != cfg.Concurrency {
		t.Fatalf("goal = %d, want %d", res.Goal, cfg.Concurrency)
	}
	if res.Discarded != 0 {
		t.Fatalf("discards without over-selection: %d", res.Discarded)
	}
}

func TestAsyncStalenessObserved(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.AggregationGoal = 5 // K << C so updates land across versions
	cfg.MaxServerUpdates = 60
	cfg.NoTraining = true
	cfg.RecordParticipants = 10_000
	res := Run(w.model, w.corpus, w.pop, cfg)
	anyStale := false
	for _, s := range res.StalenessSamples {
		if s > 0 {
			anyStale = true
			break
		}
	}
	if !anyStale {
		t.Fatal("no stale updates observed with K << concurrency")
	}
}

func TestMaxStalenessAborts(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.AggregationGoal = 2
	cfg.Concurrency = 60
	cfg.MaxStaleness = 1
	cfg.MaxServerUpdates = 80
	cfg.NoTraining = true
	cfg.RecordParticipants = 10_000
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.Discarded == 0 {
		t.Fatal("tight max staleness aborted nothing")
	}
	for _, s := range res.StalenessSamples {
		if int(s) > cfg.MaxStaleness {
			t.Fatalf("received update with staleness %v > max %d", s, cfg.MaxStaleness)
		}
	}
}

// Figure 8's mechanism: at equal concurrency, AsyncFL with a small K produces
// far more server updates per hour than SyncFL.
func TestAsyncUpdateFrequencyBeatsSync(t *testing.T) {
	w := newTestWorld()
	async := asyncCfg()
	async.Concurrency = 200
	async.AggregationGoal = 20
	async.NoTraining = true
	async.MaxSimTime = 3600
	async.MaxServerUpdates = 0
	async.MaxClientUpdates = 1 << 40
	aRes := Run(w.model, w.corpus, w.pop, async)

	sync := syncCfg()
	sync.Concurrency = 200
	sync.AggregationGoal = 0
	sync.NoTraining = true
	sync.MaxSimTime = 3600
	sync.MaxServerUpdates = 0
	sync.MaxClientUpdates = 1 << 40
	sRes := Run(w.model, w.corpus, w.pop, sync)

	if aRes.UpdatesPerHour() < 3*sRes.UpdatesPerHour() {
		t.Fatalf("async %.1f updates/h vs sync %.1f: expected >= 3x",
			aRes.UpdatesPerHour(), sRes.UpdatesPerHour())
	}
}

// Figure 7's mechanism: AsyncFL sustains higher utilization than SyncFL.
func TestAsyncUtilizationHigherThanSync(t *testing.T) {
	w := newTestWorld()
	mean := func(cfg Config) float64 {
		cfg.NoTraining = true
		cfg.RecordUtilization = true
		cfg.MaxSimTime = 2400
		cfg.MaxServerUpdates = 0
		cfg.MaxClientUpdates = 1 << 40
		res := Run(w.model, w.corpus, w.pop, cfg)
		// Time-weighted mean of active clients after warmup.
		var acc, tPrev, vPrev float64
		started := false
		for _, p := range res.Utilization {
			if p.T < 300 {
				tPrev, vPrev = p.T, p.V
				started = true
				continue
			}
			if !started {
				tPrev, vPrev = p.T, p.V
				started = true
				continue
			}
			acc += vPrev * (p.T - tPrev)
			tPrev, vPrev = p.T, p.V
		}
		acc += vPrev * (res.SimSeconds - tPrev)
		return acc / (res.SimSeconds - 300)
	}
	a := asyncCfg()
	a.Concurrency = 100
	a.AggregationGoal = 10
	s := syncCfg()
	s.Concurrency = 100
	s.AggregationGoal = 0
	au, su := mean(a), mean(s)
	if au <= su {
		t.Fatalf("async mean active %.1f <= sync %.1f", au, su)
	}
	if au < 80 {
		t.Fatalf("async mean active %.1f, want near concurrency 100", au)
	}
}

// Figure 2's mechanism: the mean SyncFL round duration without over-selection
// is many times the mean client execution time.
func TestRoundDurationDominatedByStragglers(t *testing.T) {
	w := newTestWorld()
	cfg := syncCfg()
	cfg.Concurrency = 300
	cfg.OverSelection = 0
	cfg.AggregationGoal = 0
	cfg.NoTraining = true
	cfg.MaxServerUpdates = 5
	res := Run(w.model, w.corpus, w.pop, cfg)
	meanRound := stats.Mean(res.RoundDurations)
	if res.MeanClientExecTime <= 0 {
		t.Fatal("no client exec time recorded")
	}
	ratio := meanRound / res.MeanClientExecTime
	if ratio < 4 {
		t.Fatalf("round/client time ratio %.1f, want >= 4 (stragglers)", ratio)
	}
}

func TestTargetLossStopsRun(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.EvalSeqs = w.eval
	cfg.MaxServerUpdates = 2000
	cfg.TargetLoss = math.Log(16) - 0.05 // trivially reachable
	res := Run(w.model, w.corpus, w.pop, cfg)
	if !res.TargetReached {
		t.Fatal("easy target not reached")
	}
	if res.ServerUpdates >= 2000 {
		t.Fatal("run did not stop at target")
	}
	if res.TimeToTargetHours() <= 0 {
		t.Fatal("no time-to-target recorded")
	}
}

func TestTimeToTargetPanicsWhenUnreached(t *testing.T) {
	res := &Result{}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.TimeToTargetHours()
}

func TestMaxClientUpdatesBudget(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.MaxServerUpdates = 0
	cfg.MaxClientUpdates = 57
	cfg.NoTraining = true
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.CommTrips != 57 {
		t.Fatalf("CommTrips = %d, want exactly 57", res.CommTrips)
	}
}

func TestMaxSimTimeBudget(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.MaxServerUpdates = 0
	cfg.MaxClientUpdates = 1 << 40
	cfg.MaxSimTime = 1000
	cfg.NoTraining = true
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.SimSeconds != 1000 {
		t.Fatalf("SimSeconds = %v, want 1000", res.SimSeconds)
	}
}

func TestDropoutsAndTimeoutsObserved(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.NoTraining = true
	cfg.MaxServerUpdates = 0
	cfg.MaxClientUpdates = 3000
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.Dropouts == 0 {
		t.Fatal("no dropouts in 3000 participations; population models ~3-10%")
	}
	if res.Timeouts == 0 {
		t.Fatal("no timeouts; heavy tail should exceed the 4-minute cap")
	}
	// Sanity: dropout rate in a plausible band.
	total := float64(res.CommTrips + res.Dropouts + res.Timeouts)
	rate := float64(res.Dropouts) / total
	if rate < 0.005 || rate > 0.2 {
		t.Fatalf("dropout rate %.3f outside [0.005, 0.2]", rate)
	}
}

func TestExampleWeightingAblation(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.EvalSeqs = w.eval
	cfg.MaxServerUpdates = 30
	weighted := Run(w.model, w.corpus, w.pop, cfg)
	cfg.DisableExampleWeighting = true
	unweighted := Run(w.model, w.corpus, w.pop, cfg)
	// Both must train; the trajectories must differ (weighting matters).
	if weighted.FinalLoss == unweighted.FinalLoss {
		t.Fatal("example weighting had no effect on training")
	}
}

func TestServerOptimizerSwap(t *testing.T) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.EvalSeqs = w.eval
	cfg.MaxServerUpdates = 30
	cfg.Server = fedopt.NewFedSGD(1.0)
	res := Run(w.model, w.corpus, w.pop, cfg)
	if res.ServerUpdates != 30 {
		t.Fatalf("FedSGD run produced %d updates", res.ServerUpdates)
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	w := newTestWorld()
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted by Run")
		}
	}()
	Run(w.model, w.corpus, w.pop, Config{Algorithm: "nope"})
}

func BenchmarkAsyncNoTraining(b *testing.B) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.NoTraining = true
	cfg.Concurrency = 500
	cfg.AggregationGoal = 50
	cfg.MaxServerUpdates = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		Run(w.model, w.corpus, w.pop, cfg)
	}
}

func BenchmarkAsyncWithTraining(b *testing.B) {
	w := newTestWorld()
	cfg := asyncCfg()
	cfg.MaxServerUpdates = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		Run(w.model, w.corpus, w.pop, cfg)
	}
}
