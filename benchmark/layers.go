package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/vecpool"
)

// The traced run (--trace 1). End-to-end numbers never come from here:
// this run exists to say where a session's time goes. It measures an
// untraced reference stretch, then a traced stretch on a fresh plane with
// the wrappers of trace.go installed, then replays each layer alone.

// replayKernelsPerRun is roughly how many timeOp calls one run makes; it
// sizes each kernel's budget so the replays fit their share of the run.
const replayKernelsPerRun = 24

// layerPhases splits a traced run: two untraced reference stretches
// (warm-up + 3 short windows each) around the traced one (warm-up + one
// window), and the per-kernel replay budget.
func layerPhases(seconds int) (warm, refWindow, tracedWindow, kernel time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total / 25, total * 7 / 100, total * 26 / 100, total * 20 / 100 / replayKernelsPerRun
}

// zeroLayers reports every per-layer metric, 0 where the workload does not
// exercise the layer.
func zeroLayers(d *detail) {
	for _, m := range perLayer {
		d.set(m.Name, 0)
	}
}

func netLayers(w workload, d *detail) error {
	zeroLayers(d)
	warm, refWindow, tracedWindow, kernel := layerPhases(d.Meta.Seconds)

	// The untraced reference runs before and after the traced stretch, so
	// a process that is still warming up (or a host that drifts) does not
	// read as tracing overhead.
	var refs tally
	var refRates []float64
	reference := func(label string) error {
		ref, err := setup(w, d.Meta.Seed, nil)
		if err != nil {
			return err
		}
		defer ref.close()
		l := ref.run(warm, 3, refWindow)
		rates := column(l.windows(), func(s windowStats) float64 { return s.rate })
		for _, g := range ref.verify(l, median(rates)) {
			g.Name = label + "/" + g.Name
			d.Gates = append(d.Gates, g)
		}
		refRates = append(refRates, rates...)
		refs.merge(l.tally)
		return nil
	}
	if err := reference("before"); err != nil {
		return err
	}

	tr := newTracer()
	p, err := setup(w, d.Meta.Seed, tr)
	if err != nil {
		return err
	}
	obsBefore := obsSnapshot()
	l := p.run(warm, 1, tracedWindow)
	obsAfter := obsSnapshot()
	traced := l.windows()[0]
	for _, g := range p.verify(l, traced.rate) {
		g.Name = "traced/" + g.Name
		d.Gates = append(d.Gates, g)
	}
	leased, foreign := outstandingLeases()-p.leases0, vecpool.ForeignPuts()
	p.close() // the inputs stay; the replays below use them
	if err := reference("after"); err != nil {
		return err
	}
	refRate := median(refRates)
	if refRate == 0 || traced.uploads == 0 {
		return errNoUploads
	}
	from, to := int64(l.marks[1].at.Sub(tr.epoch)), int64(l.marks[2].at.Sub(tr.epoch))
	spans := tr.snapshot()
	a := analyze(spans, from, to)
	if a.Sessions == 0 {
		return fmt.Errorf("traced run recorded no complete session")
	}
	if err := writeTrace(outDir, d.Meta, a, spans, from); err != nil {
		return err
	}

	d.Attempted = refs.admitted() + l.admitted()
	d.Failed = refs.failed + l.failed
	completed := float64(len(refs.samples) + len(l.samples))
	d.set("client.checkin_ms", a.Stages["checkin"])
	d.set("client.download_ms", a.Stages["download"])
	d.set("client.report_ms", a.Stages["report"])
	d.set("client.upload_ms", a.Stages["upload"])
	d.set("client.self_ms", a.Blocking[rowClientSelf])
	d.set("client.session_p99_ms", a.SessionP99Ms)
	d.set("client.failed_share", float64(d.Failed)/float64(d.Attempted))
	d.set("nn.train_ms", a.Blocking[rowTrain])
	d.set("transport.hop_ms", a.Blocking[rowHop])
	d.set("transport.inner_hop_ms", a.Blocking[rowInnerHop])
	d.set("transport.send_noack_ms", a.Blocking[rowSend])
	d.set("transport.calls_per_upload", traced.calls)
	d.set("transport.acks_elided_per_upload", traced.elided)
	d.set("transport.frames_coalesced_per_upload", traced.coalesced)
	d.set("server.selector.checkin_self_ms", a.Blocking[rowSelCheckin])
	d.set("server.selector.route_self_ms", a.Blocking[rowSelRoute])
	d.set("server.coordinator.assign_ms", a.Blocking[rowAssign])
	d.set("server.coordinator.agg_report_ms", a.AggReportMs)
	d.set("server.coordinator.checkin_rejects_per_upload", float64(refs.rejected+l.rejected)/completed)
	d.set("server.aggregator.join_ms", a.Blocking[rowJoin])
	d.set("server.aggregator.download_ms", a.Blocking[rowDownload])
	d.set("server.aggregator.report_ms", a.Blocking[rowReport])
	d.set("server.aggregator.chunk_ms", a.ChunkMs)
	d.set("server.aggregator.chunk_blocking_ms", a.Blocking[rowChunkBlock])
	d.set("server.aggregator.finish_ms", a.Blocking[rowFinish])
	d.set("server.aggregator.step_ms", histMeanMs(obsBefore, obsAfter, "papaya_aggregate_step_seconds"))
	d.set("server.aggregator.round_discard_share",
		float64(refs.discarded+l.discarded)/float64(d.Attempted))
	d.set("vecpool.outstanding_after", float64(leased))
	d.set("vecpool.foreign_puts_per_upload", float64(foreign)/float64(len(l.samples)))
	d.set("runtime.gc_pause_ms_per_s", traced.gcPauseMsPerS)
	d.set("runtime.num_gc_per_s", traced.gcPerS)
	d.set("trace.overhead_share", 1-traced.rate/refRate)
	d.set("trace.unattributed_share", a.Unattributed)
	d.set("bench.window_spread", spread(refRates))

	// Cross-check the outside view against the obs plane: the Done chunk's
	// handler time should be the papaya_upload_finish_seconds histogram's
	// mean plus that chunk's decode and copy.
	obsFinish := histMeanMs(obsBefore, obsAfter, "papaya_upload_finish_seconds")
	if obsFinish > 0 {
		d.set("trace.finish_vs_obs_ratio", a.Blocking[rowFinish]/obsFinish)
	}
	printReconciliation(a, refs, obsFinish)

	// Replays, at this workload's sizes.
	vec := p.in.delta
	var model nn.Model
	var examples [][]int
	if w.Train {
		model = p.in.model
		examples = p.drivers[0][0].rt.Store.Examples(time.Now())
		vec, _ = nn.LocalUpdate(model, p.in.init, examples, nn.DefaultSGDConfig(), rng.New(d.Meta.Seed))
	}
	replay, err := replayKernels(w, vec, model, p.in.init, examples, kernel)
	if err != nil {
		return err
	}
	if err := replayTransport(w.Fabric, kernel, replay); err != nil {
		return err
	}
	for name, v := range replay {
		d.set(name, v)
	}
	return nil
}

// printReconciliation prints the blocking-path rows summed against the
// session time, with the remainder shown rather than hidden.
func printReconciliation(a analysis, ref tally, obsFinishMs float64) {
	var refLat []float64
	for _, s := range ref.samples {
		refLat = append(refLat, float64(s.dur)/float64(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "  reconciliation over %d traced sessions (ms per session, self times on the blocking path):\n", a.Sessions)
	var sum float64
	for _, row := range reportRows {
		v := a.Blocking[row]
		sum += v
		fmt.Fprintf(os.Stderr, "    %-36s %9.4f  %5.1f%%\n", row, v, 100*v/a.SessionMeanMs)
	}
	fmt.Fprintf(os.Stderr, "    %-36s %9.4f  %5.1f%%\n", "unattributed", a.SessionMeanMs-sum, 100*a.Unattributed)
	fmt.Fprintf(os.Stderr, "    %-36s %9.4f  (untraced reference: mean %.4f, p50 %.4f)\n", "traced session mean",
		a.SessionMeanMs, mean(refLat), percentile(refLat, 0.5))
	fmt.Fprintf(os.Stderr, "    aggregator Done-chunk handler %.4f ms vs papaya_upload_finish_seconds mean %.4f ms\n",
		a.Blocking[rowFinish], obsFinishMs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// simLayers is the simulator workload's --trace 1 run: there is no
// session to trace, so it replays the layers on the simulator's path,
// measures the parallel engine against Workers 1, and makes one full run.
func simLayers(w workload, d *detail) error {
	zeroLayers(d)
	_, _, _, kernel := layerPhases(d.Meta.Seconds)
	world := simWorld(d.Meta.Seed)
	r := rng.New(d.Meta.Seed)
	init := world.Model.InitParams(r.Split("init"))
	examples := world.Corpus.ClientExamples(1, 0, 0.5, examplesPerDev)
	vec, _ := nn.LocalUpdate(world.Model, init, examples, nn.DefaultSGDConfig(), r)
	replay, err := replayKernels(w, vec, world.Model, init, examples, kernel)
	if err != nil {
		return err
	}
	for name, v := range replay {
		d.set(name, v)
	}

	speedup, stable := simSpeedup(world, d.Meta.Seed)
	d.set("core.workers_speedup", speedup)
	d.set("core.params_hash_stable", boolMetric(stable))
	d.Gates = append(d.Gates, check("params-hash-workers", stable, "Workers 1 vs GOMAXPROCS trained the same bits: %v", stable))

	rep := runSimRep(world, d.Meta.Seed)
	hours, reached := simHours(rep.res)
	d.set("core.sim_hours_to_target", hours)
	d.set("core.target_reached", boolMetric(reached))
	d.set("runtime.gc_pause_ms_per_s", rep.stats.gcPauseMsPerS)
	d.set("runtime.num_gc_per_s", rep.stats.gcPerS)
	d.Attempted = rep.res.CommTrips
	fmt.Fprintln(os.Stderr, "  "+simSummary(rep.res))
	return nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
