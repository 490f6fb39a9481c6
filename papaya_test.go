package papaya_test

import (
	"crypto/rand"
	"fmt"
	"math"
	"testing"
	"time"

	papaya "repro"
)

// TestFacadeQuickstart exercises the whole public API surface the way a
// downstream user would: build a workload, train with both algorithms,
// compare the paper's headline quantities.
func TestFacadeQuickstart(t *testing.T) {
	model := papaya.NewBilinearLM(16, 4)
	corpusCfg := papaya.DefaultCorpusConfig()
	corpusCfg.VocabSize = 16
	corpusCfg.NumDialects = 4
	corpus := papaya.NewCorpus(corpusCfg)
	popCfg := papaya.DefaultPopulationConfig()
	popCfg.Size = 200_000
	popCfg.NumDialects = 4
	pop := papaya.NewPopulation(popCfg)

	var eval [][]int
	for d := 0; d < 4; d++ {
		eval = append(eval, corpus.EvalSet(d, 0.5, 20, fmt.Sprintf("facade-%d", d))...)
	}

	async := papaya.Config{
		Algorithm:        papaya.Async,
		Concurrency:      60,
		AggregationGoal:  10,
		Seed:             1,
		EvalSeqs:         eval,
		EvalEvery:        5,
		MaxServerUpdates: 60,
	}
	aRes := papaya.Run(model, corpus, pop, async)
	if aRes.FinalLoss >= aRes.LossCurve[0].V {
		t.Fatalf("facade async run did not learn: %v -> %v", aRes.LossCurve[0].V, aRes.FinalLoss)
	}

	sync := papaya.Config{
		Algorithm:        papaya.Sync,
		Concurrency:      60,
		OverSelection:    0.3,
		Seed:             1,
		EvalSeqs:         eval,
		EvalEvery:        2,
		MaxServerUpdates: 10,
	}
	sRes := papaya.Run(model, corpus, pop, sync)
	if aRes.UpdatesPerHour() <= sRes.UpdatesPerHour() {
		t.Fatalf("async %.1f upd/h not above sync %.1f", aRes.UpdatesPerHour(), sRes.UpdatesPerHour())
	}
}

// TestFacadeSecAgg runs the secure aggregation pipeline through the facade.
func TestFacadeSecAgg(t *testing.T) {
	params := papaya.SecAggParams{VecLen: 16, Threshold: 2, Scale: 1 << 16}
	dep, err := papaya.NewSecAggDeployment(params, []byte("facade-tsa"),
		papaya.DefaultTEECostModel(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := dep.FetchInitialBundles(2)
	if err != nil {
		t.Fatal(err)
	}
	agg := dep.NewAggregator()
	for i := 0; i < 2; i++ {
		sess, err := papaya.NewSecAggClientSession(dep.ClientTrust(), bundles[i], rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		update := make([]float32, 16)
		update[0] = float32(i + 1)
		up, err := sess.MaskUpdate(update, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(up); err != nil {
			t.Fatal(err)
		}
	}
	sum, n, err := agg.Unmask()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || math.Abs(float64(sum[0])-3) > 1e-3 {
		t.Fatalf("aggregate = %v (n=%d)", sum[0], n)
	}
}

// TestFacadeProductionPlane spins the control plane up through the facade.
func TestFacadeProductionPlane(t *testing.T) {
	net := papaya.NewNetwork(1)
	timings := papaya.Timings{
		Heartbeat:       10 * time.Millisecond,
		FailureDeadline: 60 * time.Millisecond,
		MapRefresh:      15 * time.Millisecond,
		RecoveryPeriod:  50 * time.Millisecond,
	}
	coord := papaya.NewCoordinator("coordinator", net, timings, 1, false)
	defer coord.Stop()
	agg := papaya.NewAggregator("agg", net, "coordinator", timings)
	defer agg.Stop()
	sel := papaya.NewSelector("sel", net, "coordinator", timings)
	defer sel.Stop()

	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	model := papaya.NewBilinearLM(8, 3)
	spec := papaya.TaskSpec{
		ID:              "facade-task",
		Mode:            papaya.Async,
		NumParams:       model.NumParams(),
		Concurrency:     4,
		AggregationGoal: 2,
		Capability:      "lm",
		InitParams:      make([]float32, model.NumParams()),
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}

	store := papaya.NewExampleStore(10, time.Hour)
	store.Add([]int{1, 2, 3}, time.Now())
	if store.Len() != 1 {
		t.Fatal("example store broken")
	}
	if (papaya.DeviceState{Idle: true, Charging: true, Unmetered: true}).Eligible() != true {
		t.Fatal("eligibility broken")
	}
}

// TestFacadeExperiments checks the registry is reachable via the facade.
func TestFacadeExperiments(t *testing.T) {
	if len(papaya.Experiments()) != 12 {
		t.Fatalf("experiments = %d, want 12", len(papaya.Experiments()))
	}
	if papaya.ScaleSmall().Name != "small" || papaya.ScalePaper().Name != "paper" {
		t.Fatal("scale presets broken")
	}
	if p := papaya.Perplexity(0); p != 1 {
		t.Fatalf("Perplexity(0) = %v", p)
	}
}

// TestFacadeOptimizers smoke-tests the optimizer constructors.
func TestFacadeOptimizers(t *testing.T) {
	for _, opt := range []papaya.Optimizer{
		papaya.NewFedAdam(0.01, 0.9, 0.99, 1e-3),
		papaya.NewFedSGD(1.0),
		papaya.NewFedAvgM(0.5, 0.9),
	} {
		p := []float32{0, 0}
		opt.Step(p, []float32{1, -1})
		if p[0] <= 0 || p[1] >= 0 {
			t.Fatalf("%s moved against the update", opt.Name())
		}
	}
}
