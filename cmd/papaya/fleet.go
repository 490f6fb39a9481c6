package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	mrand "math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
)

// runFleet spawns a full three-tier PAPAYA deployment as real OS
// processes — one coordinator (`papaya serve -aggregators 0 -selectors
// 0`), N aggregator agents (`papaya agent`), M selectors
// (`papaya selector`) — then drives K simulated clients through the
// selector tier, kills tier members mid-run, and records the scaling
// curve, placement balance, and failover recovery times into a committed
// BENCH_fleet.json artifact. It is the multi-host counterpart of the
// in-process failover drills in internal/server: the same Appendix E.4
// recovery paths, exercised across process boundaries with SIGKILL
// instead of fault injection.
func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	nAgents := fs.Int("agents", 2, "aggregator agent processes")
	nSels := fs.Int("selectors", 2, "selector processes")
	nClients := fs.Int("clients", 64, "concurrent simulated clients (top of the scaling curve)")
	uploads := fs.Int("uploads", 300, "upload target across the scaling phases")
	fabricKind := fs.String("fabric", "http", "transport backend: http or tcp")
	numParams := fs.Int("params", 256, "model size (elements)")
	goal := fs.Int("goal", 8, "aggregation goal K")
	concurrency := fs.Int("concurrency", 128, "task concurrency ceiling")
	nTasks := fs.Int("tasks", 16, "extra tasks created to sample placement balance")
	killAgent := fs.Bool("kill-agent", true, "SIGKILL the agent owning the traffic task mid-run, then restart it")
	killSelector := fs.Bool("kill-selector", true, "SIGKILL one selector mid-run")
	maxRecovery := fs.Duration("max-recovery", 0, "fail (exit 1) if any recovery exceeds this (0 = report only)")
	timeout := fs.Duration("timeout", 4*time.Minute, "abort the whole run after this long")
	binPath := fs.String("bin", "", "papaya binary to spawn (default this executable)")
	out := fs.String("o", "BENCH_fleet.json", "report output path (- for stdout)")
	_ = fs.Parse(args)

	bin := *binPath
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "papaya fleet: locating own binary: %v\n", err)
			os.Exit(1)
		}
		bin = exe
	}
	stopAt := time.Now().Add(*timeout)

	// --- Tier 1: the coordinator, with no in-process aggregators or
	// selectors — the fleet supplies both tiers as separate processes.
	coord, err := fleet.Spawn("coord", bin, []string{
		"serve", "-listen", "127.0.0.1:0", "-fabric", *fabricKind,
		"-aggregators", "0", "-selectors", "0",
		"-params", fmt.Sprint(*numParams), "-goal", fmt.Sprint(*goal),
		"-concurrency", fmt.Sprint(*concurrency),
		"-obs-listen", "127.0.0.1:0",
	}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	procs := []*fleet.Proc{coord}
	// Every tier child serves an obs endpoint on an ephemeral port; the
	// harness learns each URL from the child's "obs listening on" line and
	// scrapes /metrics at the end of the run into the committed report.
	obsURLs := map[string]string{}
	var obsMu sync.Mutex
	recordObsURL := func(name string, p *fleet.Proc) {
		line, err := p.WaitForLine("obs listening on ", 15*time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "papaya fleet: %s: no obs endpoint: %v\n", name, err)
			return
		}
		f := strings.Fields(line)
		obsMu.Lock()
		obsURLs[name] = f[len(f)-1]
		obsMu.Unlock()
	}
	recordObsURL("coord", coord)
	shutdown := func() {
		// Reverse order: selectors and agents first, coordinator last.
		for i := len(procs) - 1; i >= 0; i-- {
			_ = procs[i].Stop(5 * time.Second)
		}
	}
	defer shutdown()
	// fatalf tears the fleet down before exiting — a bare os.Exit would
	// orphan every child process (defers don't run).
	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		shutdown()
		os.Exit(1)
	}

	// Watchdog: every phase loop honours stopAt, but a client goroutine
	// wedged inside a transport call would still hang the final wg.Wait.
	// Past the deadline plus grace, dump all stacks (the diagnosis), tear
	// the fleet down (no orphans), and fail the run.
	go func() {
		time.Sleep(time.Until(stopAt) + 30*time.Second)
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "papaya fleet: watchdog: run exceeded -timeout %s; goroutines:\n%s\n", *timeout, buf)
		shutdown()
		os.Exit(2)
	}()

	line, err := coord.WaitForLine("papaya serve: listening on ", 15*time.Second)
	if err != nil {
		fatalf("%v", err)
	}
	// "papaya serve: listening on URL"
	coordURL := strings.Fields(line)[4]

	// --- Tier 2: aggregator agents. The coordinator's create-task loop is
	// blocked until the first one registers.
	agentProc := make(map[string]*fleet.Proc, *nAgents)
	spawnAgent := func(name string) (*fleet.Proc, error) {
		p, err := fleet.Spawn(name, bin, []string{
			"agent", "-coordinator", coordURL, "-listen", "127.0.0.1:0",
			"-name", name,
			"-obs-listen", "127.0.0.1:0",
		}, os.Stderr)
		if err != nil {
			return nil, err
		}
		if _, err := p.WaitForLine("papaya agent: ready", 15*time.Second); err != nil {
			return nil, err
		}
		recordObsURL(name, p)
		return p, nil
	}
	for i := 0; i < *nAgents; i++ {
		name := fmt.Sprintf("fleet-agent-%d", i)
		p, err := spawnAgent(name)
		if err != nil {
			fatalf("%v", err)
		}
		procs = append(procs, p)
		agentProc[name] = p
	}
	if _, err := coord.WaitForLine("papaya serve: ready", 15*time.Second); err != nil {
		fatalf("%v", err)
	}

	// --- Tier 3: selectors, discovering the agents through the
	// coordinator's route gossip.
	selNames := make([]string, 0, *nSels)
	selProc := make(map[string]*fleet.Proc, *nSels)
	for i := 0; i < *nSels; i++ {
		name := fmt.Sprintf("sel-%d", i)
		p, err := fleet.Spawn(name, bin, []string{
			"selector", "-coordinator", coordURL, "-listen", "127.0.0.1:0",
			"-name", name, "-refresh", "250ms",
			"-obs-listen", "127.0.0.1:0",
		}, os.Stderr)
		if err != nil {
			fatalf("%v", err)
		}
		if _, err := p.WaitForLine("papaya selector: ready", 15*time.Second); err != nil {
			fatalf("%v", err)
		}
		recordObsURL(name, p)
		procs = append(procs, p)
		selNames = append(selNames, name)
		selProc[name] = p
	}

	// --- The harness's own fabric: clients ride it into the selector
	// tier. Route gossip at the coordinator makes every tier member
	// reachable from one Discover.
	fab, err := newFabric(fabricSpec{kind: *fabricKind, listen: "127.0.0.1:0", seed: 7})
	if err != nil {
		fatalf("%v", err)
	}
	defer fab.Close()
	for {
		_, _ = fab.Discover(coordURL)
		routes := fab.Routes()
		missing := ""
		for _, n := range selNames {
			if routes[n] == "" {
				missing = n
			}
		}
		for n := range agentProc {
			if routes[n] == "" {
				missing = n
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(stopAt) {
			fatalf("papaya fleet: no gossiped route for %s", missing)
		}
		time.Sleep(200 * time.Millisecond)
	}

	rep := fleet.Report{
		CreatedUnix: time.Now().Unix(),
		Commit:      gitCommit(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Fabric:      *fabricKind,
		Agents:      *nAgents,
		Selectors:   *nSels,
		Clients:     *nClients,
	}

	// --- Placement balance: create a task sample and read back where the
	// coordinator's rendezvous placement put each one.
	for i := 0; i < *nTasks; i++ {
		spec := server.TaskSpec{
			ID: fmt.Sprintf("fleet-task-%d", i), Mode: core.Async,
			NumParams: 16, Concurrency: 4, AggregationGoal: 4,
			UploadChunkSize: 4096, InitParams: make([]float32, 16),
		}
		if _, err := fab.Call("fleet", "coordinator", "create-task", spec); err != nil {
			fatalf("papaya fleet: creating sample task: %v", err)
		}
	}
	perAgent, err := placementCounts(fab)
	if err != nil {
		fatalf("papaya fleet: reading assignment map: %v", err)
	}
	rep.Placement = fleet.Placement{
		Tasks: *nTasks + 1, PerAgent: perAgent, MaxOverMin: maxOverMin(perAgent),
	}
	fmt.Fprintf(os.Stderr, "papaya fleet: placement over %d agents: %v (max/min %.2f)\n",
		len(perAgent), perAgent, rep.Placement.MaxOverMin)

	// --- Scaling curve: drive the "default" task at increasing client
	// counts through the selector tier.
	counts := []int{*nClients / 4, *nClients / 2, *nClients}
	targets := []int64{int64(*uploads / 4), int64(*uploads / 4), int64(*uploads / 2)}
	for i, c := range counts {
		if c < 1 {
			c = 1
		}
		ph := drivePhase(fab, selNames, c, targets[i], stopAt, nil)
		rep.Phases = append(rep.Phases, ph)
		fmt.Fprintf(os.Stderr, "papaya fleet: phase %d: %d clients -> %.1f uploads/s (p50 %.1fms p99 %.1fms)\n",
			i, c, ph.UploadsPerSecond, ph.P50Millis, ph.P99Millis)
	}

	// --- Failover storm: keep the full client fleet running and kill
	// tier members underneath it. Recovery after an agent kill counts only
	// sessions on tasks the dead agent owned — the surviving agent's tasks
	// keep completing throughout and would fake instant recovery.
	if *killAgent || *killSelector {
		var events []fleet.Failover
		faultPhase := drivePhase(fab, selNames, *nClients, int64(*uploads), stopAt,
			func(completedAt func() int64, waitUploadAfter func(time.Time, map[string]bool) (time.Duration, int64, bool)) {
				if *killAgent {
					owner := taskOwner(fab, "default")
					p := agentProc[owner]
					if p == nil {
						fmt.Fprintf(os.Stderr, "papaya fleet: owner %q of task default is not a fleet agent\n", owner)
						return
					}
					orphaned := tasksOwnedBy(fab, owner)
					fmt.Fprintf(os.Stderr, "papaya fleet: SIGKILL %s (owner of default and %d tasks)\n", owner, len(orphaned))
					killedAt := time.Now()
					p.Kill()
					rec, after, ok := waitUploadAfter(killedAt, orphaned)
					ev := fleet.Failover{Kind: "agent-kill", Target: owner, RecoverySeconds: rec.Seconds(), UploadsAfter: after}
					if !ok {
						ev.RecoverySeconds = -1
					}
					events = append(events, ev)
					// Restart under the same name: the coordinator re-adds it
					// on register-aggregator, the selectors re-learn its route
					// from gossip, which drops the sessions pooled toward the
					// old address. Rejoin is measured from spawn to presence in
					// list-agents.
					restartAt := time.Now()
					np, err := spawnAgent(owner)
					if err != nil {
						fmt.Fprintf(os.Stderr, "papaya fleet: restarting %s: %v\n", owner, err)
					} else {
						procs = append(procs, np)
						agentProc[owner] = np
						waitAgentListed(fab, owner, stopAt)
						rejoin := time.Since(restartAt)
						events = append(events, fleet.Failover{
							Kind: "agent-restart", Target: owner,
							RecoverySeconds: rejoin.Seconds(), UploadsAfter: completedAt(),
						})
					}
				}
				if *killSelector {
					target := selNames[0]
					fmt.Fprintf(os.Stderr, "papaya fleet: SIGKILL %s\n", target)
					killedAt := time.Now()
					selProc[target].Kill()
					rec, after, ok := waitUploadAfter(killedAt, nil)
					ev := fleet.Failover{Kind: "selector-kill", Target: target, RecoverySeconds: rec.Seconds(), UploadsAfter: after}
					if !ok {
						ev.RecoverySeconds = -1
					}
					events = append(events, ev)
				}
			})
		rep.Failovers = events
		faultPhase.Clients = *nClients
		fmt.Fprintf(os.Stderr, "papaya fleet: failover phase: %d uploads at %.1f/s through the storm\n",
			faultPhase.Uploads, faultPhase.UploadsPerSecond)
		rep.Phases = append(rep.Phases, faultPhase)
	}

	// --- End-of-run scrape: commit each live tier process's metrics into
	// the report. A process killed without restart simply drops out.
	obsMu.Lock()
	names := make([]string, 0, len(obsURLs))
	for n := range obsURLs {
		names = append(names, n)
	}
	obsMu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		m, err := scrapeObs(obsURLs[n])
		if err != nil {
			fmt.Fprintf(os.Stderr, "papaya fleet: scraping %s: %v\n", n, err)
			continue
		}
		rep.Obs = append(rep.Obs, fleet.NodeMetrics{Node: n, Metrics: m})
	}
	fmt.Fprintf(os.Stderr, "papaya fleet: scraped %d/%d obs endpoints\n", len(rep.Obs), len(names))

	if err := fleet.WriteReport(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	for _, ev := range rep.Failovers {
		fmt.Fprintf(os.Stderr, "papaya fleet: %s %s recovered in %.2fs (%d uploads after)\n",
			ev.Kind, ev.Target, ev.RecoverySeconds, ev.UploadsAfter)
		if ev.RecoverySeconds < 0 {
			fmt.Fprintf(os.Stderr, "papaya fleet: FAIL: no upload completed after %s\n", ev.Kind)
			os.Exit(1)
		}
		if *maxRecovery > 0 && ev.RecoverySeconds > maxRecovery.Seconds() {
			fmt.Fprintf(os.Stderr, "papaya fleet: FAIL: %s recovery %.2fs exceeds %s\n",
				ev.Kind, ev.RecoverySeconds, maxRecovery)
			os.Exit(1)
		}
	}
}

// drivePhase runs n clients through the selector tier until target
// uploads complete (or the deadline passes). When fault is non-nil it is
// invoked once the phase is warm (first upload done); the callback gets
// completedAt (current upload count) and waitUploadAfter (block until a
// session that STARTED after t completes — optionally restricted to a
// task set — returning elapsed-since-t, uploads-since-t, and ok=false on
// deadline).
func drivePhase(fab fabricConn, selectors []string, n int, target int64,
	stopAt time.Time, fault func(func() int64, func(time.Time, map[string]bool) (time.Duration, int64, bool))) fleet.Phase {

	var completed, rejected, terrors atomic.Int64
	var stop atomic.Bool
	var latMu sync.Mutex
	var latencies []time.Duration
	// Each completion carries its session's start time and task: recovery
	// after an induced kill counts only sessions that began after the kill
	// (in-flight responses drained from socket buffers would fake a 0s
	// recovery) and, for an agent kill, only sessions on the dead agent's
	// own tasks.
	type completion struct {
		started time.Time
		task    string
	}
	completions := make(chan completion, 4096)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rnd := mrand.New(mrand.NewSource(id))
			store := client.NewExampleStore(0, 0)
			store.Add([]int{1, 2, 3}, time.Now())
			sels := append([]string(nil), selectors[id%int64(len(selectors)):]...)
			sels = append(sels, selectors[:id%int64(len(selectors))]...)
			dev := &client.Runtime{
				ClientID:  id,
				Store:     store,
				Exec:      fleetExecutor{},
				Net:       fab,
				Selectors: sels,
				State:     client.DeviceState{Idle: true, Charging: true, Unmetered: true},
				Random:    rand.Reader,
			}
			for !stop.Load() && time.Now().Before(stopAt) {
				sessStart := time.Now()
				res, err := dev.RunOnce(sessStart)
				if err != nil {
					terrors.Add(1)
					time.Sleep(time.Duration(rnd.Int63n(int64(50 * time.Millisecond))))
					continue
				}
				switch res.Outcome {
				case client.Completed:
					completed.Add(1)
					select {
					case completions <- completion{started: sessStart, task: res.TaskID}:
					default:
					}
					latMu.Lock()
					latencies = append(latencies, time.Since(sessStart))
					latMu.Unlock()
				case client.Rejected:
					rejected.Add(1)
					time.Sleep(time.Duration(rnd.Int63n(int64(50 * time.Millisecond))))
				case client.Aborted:
				}
			}
		}(int64(1000 + c))
	}

	waitUploadAfter := func(t time.Time, tasks map[string]bool) (time.Duration, int64, bool) {
		before := completed.Load()
		for {
			select {
			case c := <-completions:
				if c.started.After(t) && (tasks == nil || tasks[c.task]) {
					return time.Since(t), completed.Load() - before, true
				}
			case <-time.After(time.Until(stopAt)):
				return 0, completed.Load() - before, false
			}
			if time.Now().After(stopAt) {
				return 0, completed.Load() - before, false
			}
		}
	}

	if fault != nil {
		// Warm up first so "recovery" measures re-routing, not startup.
		if _, _, ok := waitUploadAfter(start, nil); !ok {
			fmt.Fprintln(os.Stderr, "papaya fleet: no upload completed before fault injection")
		}
		fault(completed.Load, waitUploadAfter)
	}

	for completed.Load() < target && time.Now().Before(stopAt) {
		time.Sleep(20 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)

	return fleet.Phase{
		Clients:          n,
		Uploads:          completed.Load(),
		Rejected:         rejected.Load(),
		Errors:           terrors.Load(),
		WallSeconds:      wall.Seconds(),
		UploadsPerSecond: float64(completed.Load()) / wall.Seconds(),
		P50Millis:        percentileMillis(latencies, 0.50),
		P99Millis:        percentileMillis(latencies, 0.99),
	}
}

// fleetExecutor skips real SGD like the loadtest's fixed-delta executor,
// but sizes the delta from the downloaded params so one executor serves
// any task shape.
type fleetExecutor struct{}

// Train returns a constant small delta of the model's dimensionality.
func (fleetExecutor) Train(params []float32, examples [][]int) ([]float32, float64) {
	out := make([]float32, len(params))
	for i := range out {
		out[i] = 0.001
	}
	return out, 1.0
}

// placementCounts reads the coordinator's assignment map and counts
// tasks per aggregator.
func placementCounts(fab fabricConn) (map[string]int, error) {
	resp, err := fab.Call("fleet", "coordinator", "map-request", nil)
	if err != nil {
		return nil, err
	}
	m, ok := resp.(server.MapResponse)
	if !ok {
		return nil, fmt.Errorf("map-request returned %T", resp)
	}
	counts := make(map[string]int)
	for _, a := range m.Assignments {
		counts[a.Aggregator]++
	}
	return counts, nil
}

// taskOwner returns the aggregator currently assigned taskID ("" when
// unassigned or the coordinator is unreachable).
func taskOwner(fab fabricConn, taskID string) string {
	resp, err := fab.Call("fleet", "coordinator", "map-request", nil)
	if err != nil {
		return ""
	}
	if m, ok := resp.(server.MapResponse); ok {
		return m.Assignments[taskID].Aggregator
	}
	return ""
}

// tasksOwnedBy returns the set of task IDs currently assigned to the
// named aggregator (empty on coordinator errors).
func tasksOwnedBy(fab fabricConn, name string) map[string]bool {
	owned := make(map[string]bool)
	resp, err := fab.Call("fleet", "coordinator", "map-request", nil)
	if err != nil {
		return owned
	}
	if m, ok := resp.(server.MapResponse); ok {
		for task, a := range m.Assignments {
			if a.Aggregator == name {
				owned[task] = true
			}
		}
	}
	return owned
}

// waitAgentListed polls list-agents until name is back in the live set,
// returning how long the rejoin took.
func waitAgentListed(fab fabricConn, name string, stopAt time.Time) time.Duration {
	start := time.Now()
	for time.Now().Before(stopAt) {
		resp, err := fab.Call("fleet", "coordinator", "list-agents", nil)
		if err == nil {
			if list, ok := resp.(server.AgentListResponse); ok {
				for _, a := range list.Agents {
					if a == name {
						return time.Since(start)
					}
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return time.Since(start)
}

// maxOverMin is the balance ratio across the per-agent counts (0 when
// any agent has no tasks, 1 when perfectly even).
func maxOverMin(counts map[string]int) float64 {
	min, max := -1, 0
	for _, c := range counts {
		if min < 0 || c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min <= 0 {
		return 0
	}
	return float64(max) / float64(min)
}
