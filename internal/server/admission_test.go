package server_test

// Admission (Section 6.2). The coordinator assigns a client only while a
// task's heartbeat demand exceeds its pending count, the clients it has
// assigned whose join has not answered yet. The selector reports every
// answered join on its next assign-client, so admission follows session
// closes rather than the heartbeat; the aggregator's join stays the hard
// concurrency gate (Appendix E.1).

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/lmdata"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

// TestAdmissionFollowsSessionCloses parks every background loop, so no
// heartbeat refreshes demand or resets the pending count: eight sequential
// participations on a task of concurrency 2 are each accepted on their
// first check-in only because answered joins release their slots.
func TestAdmissionFollowsSessionCloses(t *testing.T) {
	forEachFabric(t, testAdmissionFollowsSessionCloses)
}

func testAdmissionFollowsSessionCloses(t *testing.T, fx fabricFactory) {
	w := newTimedWorld(t, fx, 1, 1, relayTimings())
	w.createTask(lmSpec("admit", w.model, core.Async, 2, 4))
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 4, Seed: 3,
		SeqLenMin: 5, SeqLenMax: 9, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	for id := int64(1); id <= 8; id++ {
		res, err := w.device(id, corpus, 6).RunOnce(time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != client.Completed {
			t.Fatalf("participation %d: %s (%s)", id, res.Outcome, res.Reason)
		}
	}
}

// TestLateAnswersNeverDrivePendingNegative: answers that reach the
// coordinator after a heartbeat has reset the task's pending count are
// clamped at zero, so they cannot admit more clients than the heartbeat's
// demand. An answer for an unknown task is ignored.
func TestLateAnswersNeverDrivePendingNegative(t *testing.T) {
	const (
		node = "coord-pending"
		agg  = "agg-pending"
	)
	sample := func(name, labels string) float64 {
		return obs.Default().Snapshot()[fmt.Sprintf(`%s{node=%q,%s}`, name, node, labels)]
	}
	pending := func() float64 { return sample("papaya_coordinator_pending", `task="pend"`) }
	// The registry is process-global, so -count>1 reruns see the earlier
	// runs' outcome counters: assert on this run's increments.
	assigned0 := sample("papaya_coordinator_assignments_total", `outcome="assigned"`)
	noDemand0 := sample("papaya_coordinator_assignments_total", `outcome="no_demand"`)

	net := transport.NewNetwork(5)
	tm := relayTimings()
	coord := server.NewCoordinator(node, net, tm, 7, false)
	a := server.NewAggregator(agg, net, node, tm)
	defer func() {
		a.Stop()
		coord.Stop()
	}()
	if _, err := net.Call("test", node, "register-aggregator", agg); err != nil {
		t.Fatal(err)
	}
	spec := server.TaskSpec{
		ID: "pend", Mode: core.Async, NumParams: 8, Concurrency: 4, AggregationGoal: 1,
		Capability: "lm", InitParams: make([]float32, 8),
	}
	if _, err := net.Call("test", node, "create-task", spec); err != nil {
		t.Fatal(err)
	}
	assign := func(caps []string, answered ...string) bool {
		t.Helper()
		resp, err := net.Call("test", node, "assign-client", server.AssignClientRequest{
			ClientID: 1, Capabilities: caps, Answered: answered,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(server.AssignClientResponse).Assigned
	}
	lm := []string{"lm"}

	// Three clients assigned, their joins still in flight.
	for i := 0; i < 3; i++ {
		if !assign(lm) {
			t.Fatalf("assignment %d refused with demand 4", i)
		}
	}
	if p := pending(); p != 3 {
		t.Fatalf("pending = %g after three assignments, want 3", p)
	}

	// A heartbeat confirms demand 4 and resets the count; then the three
	// answers arrive, from a client that matches no task.
	if _, err := net.Call("test", node, "agg-report", server.AggReport{
		Aggregator: agg,
		Tasks:      map[string]server.TaskReport{"pend": {Spec: spec, Seq: 1, Demand: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	if assign(nil, "pend", "pend", "pend", "ghost") {
		t.Fatal("a client without the task's capability was assigned")
	}
	if p := pending(); p != 0 {
		t.Fatalf("pending = %g after late answers, want 0", p)
	}

	// Demand 4 admits exactly four more.
	for i := 0; i < 4; i++ {
		if !assign(lm) {
			t.Fatalf("assignment %d refused with demand 4 and nothing pending", i)
		}
	}
	if assign(lm) {
		t.Fatal("a fifth client was assigned against demand 4: late answers drove pending negative")
	}
	if got := sample("papaya_coordinator_assignments_total", `outcome="assigned"`) - assigned0; got != 7 {
		t.Fatalf("assigned outcomes = %g, want 7", got)
	}
	if got := sample("papaya_coordinator_assignments_total", `outcome="no_demand"`) - noDemand0; got != 2 {
		t.Fatalf("no_demand outcomes = %g, want 2", got)
	}
}
