package server_test

// Table-driven failover drills (Appendix E.4): each scenario kills part of
// the control plane while a concurrent streamed client fleet is mid-
// traffic, then asserts the three recovery invariants at once —
//
//   1. training resumes: the task's version advances past its pre-fault
//      value without operator intervention;
//   2. clients recover through check-in/route failover: drivers see only
//      the transient ErrNoSelector while the fault is live, never a hard
//      error, and complete fresh sessions afterwards;
//   3. no session is lost server-side: after the drivers stop, the task
//      quiesces to zero active sessions and the vecpool outstanding-lease
//      counters return exactly to their pre-drill baseline (the reaper
//      releases every buffer leased for a session orphaned by the fault).
//
// The drills run on a reduced backend set — the deterministic in-memory
// fabric and the HTTP fabric, each under forEachFabric's two mode names;
// the full conformance crossing already proves backend parity for the
// non-fault paths.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/server"
	"repro/internal/vecpool"
)

// failoverTimings shrink the session TTL so orphaned-session reaping — and
// with it the lease-balance assertion — lands within the test budget.
func failoverTimings() server.Timings {
	tm := testTimings()
	tm.SessionTTL = 300 * time.Millisecond
	return tm
}

func fabricByName(t *testing.T, name string) fabricFactory {
	t.Helper()
	for _, fx := range fabricFactories {
		if fx.name == name {
			return fx
		}
	}
	t.Fatalf("no fabric factory named %q", name)
	return fabricFactory{}
}

func forEachFailoverFabric(t *testing.T, run func(t *testing.T, fx fabricFactory)) {
	for _, name := range []string{"inmem", "http-stream"} {
		runBothModes(t, fabricByName(t, name), run)
	}
}

// newFailoverWorld is newWorld with failover timings: same topology, short
// session TTL.
func newFailoverWorld(t *testing.T, fx fabricFactory, nAggs, nSels int) *world {
	t.Helper()
	w := &world{t: t, net: fx.make(t, 2), model: nn.NewBilinear(16, 4)}
	w.coord = server.NewCoordinator("coordinator", w.net, failoverTimings(), 7, false)
	for i := 0; i < nAggs; i++ {
		name := agName(i)
		w.aggs = append(w.aggs, server.NewAggregator(name, w.net, "coordinator", failoverTimings()))
		if _, err := w.net.Call("test", "coordinator", "register-aggregator", name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nSels; i++ {
		w.sels = append(w.sels, newTestSelector(selName(i), w.net, "coordinator", failoverTimings()))
	}
	t.Cleanup(func() {
		for _, a := range w.aggs {
			a.Stop()
		}
		for _, s := range w.sels {
			s.Stop()
		}
		w.coord.Stop()
	})
	return w
}

// taskInfoAny fetches task-info through whichever selector is alive.
func taskInfoAny(w *world, taskID string) (server.TaskInfo, bool) {
	for i := 0; i < len(w.sels) && i < 2; i++ {
		resp, err := w.net.Call("probe", selName(i), "route", server.RouteRequest{
			TaskID: taskID, Method: "task-info", Payload: taskID,
		})
		if err == nil {
			return resp.(server.TaskInfo), true
		}
	}
	return server.TaskInfo{}, false
}

func ownerOf(t *testing.T, w *world, taskID string) string {
	t.Helper()
	resp, err := w.net.Call("test", "coordinator", "map-request", nil)
	if err != nil {
		t.Fatalf("map-request: %v", err)
	}
	return resp.(server.MapResponse).Assignments[taskID].Aggregator
}

func waitVersion(t *testing.T, w *world, taskID string, version int, deadline time.Duration) server.TaskInfo {
	t.Helper()
	stopAt := time.Now().Add(deadline)
	for time.Now().Before(stopAt) {
		if info, ok := taskInfoAny(w, taskID); ok && info.Version >= version {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("task %s did not reach version %d before deadline", taskID, version)
	return server.TaskInfo{}
}

// failoverDrill is one row of the drill table: a fault injected while the
// fleet is mid-traffic. The recovery assertions are shared.
type failoverDrill struct {
	name string
	// fault receives the task's owning aggregator at injection time; it may
	// restart components (registering their Stop via t.Cleanup).
	fault func(t *testing.T, w *world, fx fabricFactory, owner string)
}

var failoverDrills = []failoverDrill{
	{
		// The owning aggregator dies mid-round: sessions on it are lost,
		// the coordinator detects the missed heartbeats and replaces the
		// task from its retained checkpoint on the survivor (E.4).
		name: "agent-death-mid-round",
		fault: func(t *testing.T, w *world, fx fabricFactory, owner string) {
			w.net.Crash(owner)
		},
	},
	{
		// The selector clients prefer dies while their streamed sessions
		// are in flight: every broken stream degrades to per-call failover
		// through the surviving selector mid-attempt (E.4 "clients retry
		// through a different selector").
		name: "selector-death-mid-stream",
		fault: func(t *testing.T, w *world, fx fabricFactory, owner string) {
			w.net.Crash(selName(0))
		},
	},
	{
		// Selector and owning aggregator die together, then both restart
		// under their old names once the coordinator has moved the task —
		// the restarted aggregator comes back empty (its state died with
		// the process) and must rejoin as a fresh node, and the restarted
		// selector must serve routes for a task it never saw assigned.
		name: "selector-and-agent-restart",
		fault: func(t *testing.T, w *world, fx fabricFactory, owner string) {
			w.net.Crash(selName(0))
			w.net.Crash(owner)
			deadline := time.Now().Add(15 * time.Second)
			for ownerOf(t, w, "drill") == owner {
				if time.Now().After(deadline) {
					t.Fatal("task never reassigned off the dead aggregator")
				}
				time.Sleep(10 * time.Millisecond)
			}
			// Restart both under their old names; Register clears the crash
			// markers, and the aggregator re-registers with the coordinator
			// like any new process. Cleanup is registered here rather than by
			// appending to w.aggs/w.sels — the driver goroutines read those
			// slices concurrently.
			agg := server.NewAggregator(owner, w.net, "coordinator", failoverTimings())
			t.Cleanup(agg.Stop)
			if _, err := w.net.Call("test", "coordinator", "register-aggregator", owner); err != nil {
				t.Fatalf("re-registering restarted aggregator: %v", err)
			}
			sel := newTestSelector(selName(0), w.net, "coordinator", failoverTimings())
			t.Cleanup(sel.Stop)
		},
	},
}

func TestFailoverDrills(t *testing.T) {
	if testing.Short() {
		t.Skip("failover drills skipped in -short")
	}
	for _, drill := range failoverDrills {
		drill := drill
		t.Run(drill.name, func(t *testing.T) {
			forEachFailoverFabric(t, func(t *testing.T, fx fabricFactory) {
				runFailoverDrill(t, fx, drill)
			})
		})
	}
}

func runFailoverDrill(t *testing.T, fx fabricFactory, drill failoverDrill) {
	baseF, baseU := vecpool.OutstandingFloats(), vecpool.OutstandingUints()
	w := newFailoverWorld(t, fx, 2, 2)
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 4, Seed: 3,
		SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	spec := lmSpec("drill", w.model, core.Async, 8, 2)
	spec.UploadChunkSize = 37 // 144 params -> 4 chunks: faults land mid-reassembly
	w.createTask(spec)

	// A concurrent fleet hammers the plane for the whole drill.
	// Transport failures surface as ErrNoSelector while a fault is live;
	// anything else is a hard client error and fails the drill.
	var (
		stopDrivers   atomic.Bool
		faultLive     atomic.Bool
		postFaultDone atomic.Int64
		nextID        atomic.Int64
		driverErrMu   sync.Mutex
		driverErr     error
		wg            sync.WaitGroup
	)
	for d := 0; d < 4; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopDrivers.Load() {
				dev := w.device(1000+nextID.Add(1), corpus, 6)
				res, err := dev.RunOnce(time.Now())
				if err != nil {
					if errors.Is(err, client.ErrNoSelector) {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					driverErrMu.Lock()
					if driverErr == nil {
						driverErr = err
					}
					driverErrMu.Unlock()
					return
				}
				if res.Outcome == client.Completed && faultLive.Load() {
					postFaultDone.Add(1)
				}
				if res.Outcome != client.Completed {
					// Rejected (concurrency full) or Aborted (session died
					// with the fault): both are recoverable — retry.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}

	before := waitVersion(t, w, "drill", 2, 20*time.Second)
	owner := ownerOf(t, w, "drill")
	faultLive.Store(true) // before injection: recovery can outrun fault() returning
	drill.fault(t, w, fx, owner)

	after := waitVersion(t, w, "drill", before.Version+2, 20*time.Second)
	for completionDeadline := time.Now().Add(10 * time.Second); postFaultDone.Load() == 0; {
		if time.Now().After(completionDeadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopDrivers.Store(true)
	wg.Wait()

	driverErrMu.Lock()
	err := driverErr
	driverErrMu.Unlock()
	if err != nil {
		t.Fatalf("driver hit a hard error during the drill: %v", err)
	}
	if after.Version <= before.Version {
		t.Fatalf("no post-fault progress: version %d -> %d", before.Version, after.Version)
	}
	if postFaultDone.Load() == 0 {
		t.Fatal("no client completed a session after the fault")
	}

	// Zero lost sessions: with the drivers gone, every session — including
	// those orphaned by the fault — must be closed or reaped, and every
	// leased buffer returned. Crashed-but-running instances still run their
	// local reaper, and a restarted aggregator's stale-state heartbeat
	// earns a drop directive that releases its old sessions.
	deadline := time.Now().Add(20 * time.Second)
	for {
		info, ok := taskInfoAny(w, "drill")
		f, u := vecpool.OutstandingFloats(), vecpool.OutstandingUints()
		if ok && info.Active == 0 && f == baseF && u == baseU {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no quiescence after drill: active=%d (ok=%v), floats %d (base %d), uints %d (base %d)",
				info.Active, ok, f, baseF, u, baseU)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
