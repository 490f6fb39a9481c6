package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/fedopt"
	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/transport"
)

// Options configures one scenario run.
type Options struct {
	// Fabric carries the run. The engine registers the whole control
	// plane on it under fixed names (coordinator, agg-N, sel-N), so each
	// run needs a dedicated fabric instance.
	Fabric transport.Fabric
	// FabricName labels the fabric in reports ("inmem", "http", "tcp").
	FabricName string
	// Workers is the number of concurrent client drivers; each worker
	// runs entire clients (all their attempts) off a shared queue. 0
	// means one worker per client. The fault schedule is independent of
	// this knob by construction — that is what the determinism
	// regression asserts.
	Workers int
	// Aggregators and Selectors size the control plane; 0 means 1 each.
	Aggregators int
	// Selectors is the routing tier size.
	Selectors int
	// Timings overrides the control-plane timings; zero means the
	// engine's short simulation defaults.
	Timings server.Timings
}

// SimTimings are the engine's default control-plane timings: short enough
// that a profile finishes in test time, with a SessionTTL sized above the
// slowest tier's train+upload gap so vanished sessions are reaped without
// stealing slow clients' completed work.
func SimTimings() server.Timings {
	return server.Timings{
		Heartbeat:       10 * time.Millisecond,
		FailureDeadline: 80 * time.Millisecond,
		MapRefresh:      15 * time.Millisecond,
		RecoveryPeriod:  50 * time.Millisecond,
		SessionTTL:      400 * time.Millisecond,
	}
}

// driverName is the engine's own node name for control-plane calls.
const driverName = "scenario-driver"

// evalExamples sizes the held-out eval set.
const evalExamples = 128

// Run executes a scenario: it stands up the control plane on the fabric,
// creates the task, injects the network fault profile, drives the tiered
// fleet through its attempt budget, and measures convergence (eval loss
// before vs after) plus per-tier latency. The returned Report carries the
// full per-attempt event trace for determinism diffing.
func Run(spec Spec, opts Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Fabric == nil {
		return nil, fmt.Errorf("scenario: Options.Fabric is required")
	}
	nAggs := opts.Aggregators
	if nAggs <= 0 {
		nAggs = 1
	}
	nSels := opts.Selectors
	if nSels <= 0 {
		nSels = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = spec.NumClients()
	}
	timings := opts.Timings
	if timings == (server.Timings{}) {
		timings = SimTimings()
	}
	rule, err := fedopt.AggregationByName(spec.Aggregation, spec.AggParam)
	if err != nil {
		return nil, err
	}

	// Network fault profile, through the FaultInjector seam when the
	// fabric has one (the in-memory network does; live fabrics vary).
	faults, _ := opts.Fabric.(transport.FaultInjector)
	injected := false
	if faults != nil && (spec.Network.LossProb > 0 || spec.Network.LatencyMillis > 0) {
		faults.SetLoss(spec.Network.LossProb)
		faults.SetLatency(time.Duration(spec.Network.LatencyMillis * float64(time.Millisecond)))
		injected = true
		defer func() {
			faults.SetLoss(0)
			faults.SetLatency(0)
		}()
	}

	// Control plane.
	net := opts.Fabric
	coord := server.NewCoordinator("coordinator", net, timings, int64(spec.Seed), false)
	defer coord.Stop()
	var aggs []*server.Aggregator
	for i := 0; i < nAggs; i++ {
		name := fmt.Sprintf("agg-%d", i)
		aggs = append(aggs, server.NewAggregator(name, net, "coordinator", timings))
		if _, err := net.Call(driverName, "coordinator", "register-aggregator", name); err != nil {
			return nil, fmt.Errorf("scenario: registering %s: %w", name, err)
		}
	}
	defer func() {
		for _, a := range aggs {
			a.Stop()
		}
	}()
	var selNames []string
	var sels []*server.Selector
	for i := 0; i < nSels; i++ {
		name := fmt.Sprintf("sel-%d", i)
		selNames = append(selNames, name)
		sels = append(sels, server.NewSelector(name, net, "coordinator", timings))
	}
	defer func() {
		for _, s := range sels {
			s.Stop()
		}
	}()

	// Model, data, task.
	model := nn.NewBilinear(spec.Model.Vocab, spec.Model.Dim)
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: spec.Model.Vocab, NumDialects: spec.Data.Dialects, Seed: spec.Seed,
		SeqLenMin: 5, SeqLenMax: 8, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	init := model.InitParams(rng.New(spec.Seed).Split("init"))
	eval := corpus.EvalSet(0, 0, evalExamples, "scenario-eval")
	lossBefore := model.Loss(init, eval)

	task := server.TaskSpec{
		ID:              spec.Name,
		Mode:            spec.Algorithm(),
		NumParams:       model.NumParams(),
		Concurrency:     spec.Concurrency,
		AggregationGoal: spec.Goal,
		MaxStaleness:    spec.MaxStaleness,
		Capability:      "lm",
		InitParams:      init,
		UploadChunkSize: spec.ChunkSize,
		Aggregation:     spec.Aggregation,
		AggParam:        spec.AggParam,
		DP:              spec.dpConfig(),
	}
	if err := createTask(net, task, timings); err != nil {
		return nil, err
	}

	// The fleet. FedProx is two-sided: clients train with the proximal
	// pull (ProxMu) while the server damps the released mean — the mu is
	// shared through the resolved rule.
	cfg := nn.DefaultSGDConfig()
	if prox, ok := rule.(fedopt.FedProx); ok {
		cfg.ProxMu = prox.Mu
	}
	n := spec.NumClients()
	devices := make([]*device, n)
	for i := 0; i < n; i++ {
		id := int64(i + 1)
		store := client.NewExampleStore(0, 0)
		for _, seq := range corpus.ClientExamples(id, spec.DialectOf(id), spec.Data.DialectWeight, spec.Data.ExamplesPerClient) {
			store.Add(seq, time.Time{})
		}
		exec := &pacedExecutor{inner: &client.SGDExecutor{
			Model:  model,
			Config: cfg,
			Rng:    rng.New(spec.Seed).SplitUint64(uint64(id)).Split("sgd"),
		}}
		rt := &client.Runtime{
			ClientID:     id,
			Capabilities: []string{"lm"},
			Store:        store,
			Exec:         exec,
			Net:          net,
			Selectors:    selNames,
			State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
		}
		devices[i] = &device{spec: &spec, rt: rt, exec: exec, tier: spec.TierOf(id)}
	}

	// Drive the fleet: workers pull whole clients off the queue and run
	// their full attempt loops. The schedule (who is available, who dies
	// where) is pre-drawn per (client, attempt), so worker count only
	// affects interleaving, never the trace.
	start := time.Now()
	obsBefore := obs.Default().Snapshot()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				devices[idx].run()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	obsDelta := metricsDelta(obsBefore, obs.Default().Snapshot())

	// Lift the fault profile before the final info query so the readout
	// cannot be dropped by its own scenario.
	if injected {
		faults.SetLoss(0)
		faults.SetLatency(0)
		injected = false
	}
	info, err := taskInfo(net, selNames[0], spec.Name)
	if err != nil {
		return nil, err
	}
	lossAfter := model.Loss(info.Params, eval)

	// Assemble the report.
	rep := &Report{
		Scenario:   spec.Name,
		Rule:       rule.Name(),
		Mode:       string(spec.Algorithm()),
		Fabric:     opts.FabricName,
		Clients:    n,
		Attempts:   spec.Attempts,
		Workers:    workers,
		Faults:     spec.Network != NetworkSpec{},
		LossBefore: lossBefore,
		LossAfter:  lossAfter,
		Version:    info.Version,
		Uploads:    info.Updates,
		WallSecs:   wall.Seconds(),
		Metrics:    obsDelta,
	}
	if wall > 0 {
		rep.UploadsPerSec = float64(info.Updates) / wall.Seconds()
	}
	if info.DPEnabled {
		rep.DPEnabled = true
		rep.DPEpsilon = info.DPEpsilon
		rep.DPDelta = info.DPDelta
		rep.DPReleases = info.DPReleases
		rep.DPBudget = info.DPBudget
		rep.DPExhausted = info.DPExhausted
	}
	for ti, t := range spec.Tiers {
		st := TierStats{Tier: t.Name, Clients: t.Clients}
		var lats []time.Duration
		for _, d := range devices {
			if d.tier != ti {
				continue
			}
			st.Completed += d.completed
			st.Dropped += d.dropped
			st.Rejected += d.rejected
			st.Aborted += d.aborted
			st.Unavailable += d.unavailable
			st.Errors += d.errors
			lats = append(lats, d.latencies...)
		}
		st.P50Millis = percentileMillis(lats, 0.50)
		st.P99Millis = percentileMillis(lats, 0.99)
		rep.Tiers = append(rep.Tiers, st)
	}
	for _, d := range devices {
		rep.Trace = append(rep.Trace, d.trace...)
	}
	sort.Slice(rep.Trace, func(i, j int) bool {
		a, b := rep.Trace[i], rep.Trace[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Attempt < b.Attempt
	})
	return rep, nil
}

// createTask retries task creation until the registered aggregators have
// heartbeated in (placement needs a live aggregator).
func createTask(net transport.Fabric, task server.TaskSpec, timings server.Timings) error {
	deadline := time.Now().Add(50 * timings.Heartbeat)
	for {
		_, err := net.Call(driverName, "coordinator", "create-task", task)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scenario: creating task: %w", err)
		}
		time.Sleep(timings.Heartbeat)
	}
}

// taskInfo reads a task snapshot through a selector route, retrying
// briefly: the final readout races the last heartbeat map refresh.
func taskInfo(net transport.Fabric, selector, task string) (server.TaskInfo, error) {
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := net.Call(driverName, selector, "route", server.RouteRequest{
			TaskID: task, Method: "task-info", Payload: task,
		})
		if err == nil {
			if info, ok := resp.(server.TaskInfo); ok {
				return info, nil
			}
			lastErr = fmt.Errorf("task-info returned %T", resp)
		} else {
			lastErr = err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return server.TaskInfo{}, fmt.Errorf("scenario: %w", lastErr)
}

// pacedExecutor injects the plan's simulated device compute inside the
// session — between download and training — so slow tiers hold sessions
// longer and accumulate real staleness, not just lower attempt rates.
type pacedExecutor struct {
	inner client.Executor
	delay time.Duration // set per attempt by the owning driver goroutine
}

// Train implements client.Executor.
func (p *pacedExecutor) Train(params []float32, examples [][]int) ([]float32, float64) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.inner.Train(params, examples)
}

// device is one simulated client plus its accumulated outcome counters.
// A device is driven by exactly one worker goroutine at a time.
type device struct {
	spec *Spec
	rt   *client.Runtime
	exec *pacedExecutor
	tier int

	completed, dropped, rejected, aborted, unavailable, errors int
	latencies                                                  []time.Duration
	trace                                                      []TraceEvent
}

// run executes the device's full attempt budget.
func (d *device) run() {
	for attempt := 0; attempt < d.spec.Attempts; attempt++ {
		plan := d.spec.PlanFor(d.rt.ClientID, attempt)
		ev := TraceEvent{
			Client:      d.rt.ClientID,
			Attempt:     attempt,
			Available:   plan.Available,
			Drop:        string(plan.Drop),
			Vanish:      plan.Vanish,
			DelayMicros: plan.Delay.Microseconds(),
		}
		if !plan.Available {
			d.unavailable++
			ev.Outcome = "unavailable"
			d.trace = append(d.trace, ev)
			continue
		}
		d.exec.delay = plan.Delay
		d.rt.Dropout = func() (client.DropStage, bool) { return plan.Drop, plan.Vanish }
		begin := time.Now()
		res, err := d.rt.RunOnce(begin)
		switch {
		case err != nil:
			// Transport-level failure (network loss profile, no selector
			// reachable): the device backs off to its next attempt.
			d.errors++
			ev.Outcome = "error"
		case res.Outcome == client.Completed:
			d.completed++
			d.latencies = append(d.latencies, time.Since(begin))
			ev.Outcome = string(res.Outcome)
		default:
			switch res.Outcome {
			case client.Dropped:
				d.dropped++
			case client.Rejected:
				d.rejected++
			case client.Aborted:
				d.aborted++
			}
			ev.Outcome = string(res.Outcome)
		}
		d.trace = append(d.trace, ev)
	}
}

// metricsDelta subtracts two registry snapshots and keeps the nonzero
// papaya_ movements — what this run itself added to the shared
// in-process registry. Samples that first appeared during the run (new
// labeled children) count from zero.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range after {
		if !strings.HasPrefix(name, "papaya_") {
			continue
		}
		if d := v - before[name]; d != 0 {
			out[name] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// percentileMillis is the loadtest's percentile, local to the engine.
func percentileMillis(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}
