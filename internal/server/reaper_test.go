package server_test

// Session-reaper tests: a client that joins (and possibly uploads part of
// an update) and then dies silently must have its virtual session — and
// the pooled reassembly vector leased for it — reaped after
// Timings.SessionTTL on the heartbeat tick, on every fabric. This was the
// PR-4 leak: before the TTL, such a session held its concurrency slot and
// leased vector until task drop. Active sessions whose uploads keep
// arriving must survive the sweep; that half drives the sweep with explicit
// instants (export_test.go) instead of racing sleeps against the TTL.

import (
	"crypto/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
	"repro/internal/vecpool"
)

// reaperTimings shrink the TTL so tests observe the sweep quickly.
func reaperTimings() server.Timings {
	tm := testTimings()
	tm.SessionTTL = 60 * time.Millisecond
	return tm
}

// reaperWorld is a minimal control plane.
type reaperWorld struct {
	t   *testing.T
	net testFabric
	agg *server.Aggregator
}

func newReaperWorld(t *testing.T, fx fabricFactory, spec server.TaskSpec, tm server.Timings) *reaperWorld {
	t.Helper()
	net := fx.make(t, 11)
	coord := server.NewCoordinator("coordinator", net, tm, 7, false)
	agg := server.NewAggregator("agg", net, "coordinator", tm)
	sel := newTestSelector("sel", net, "coordinator", tm)
	t.Cleanup(func() {
		sel.Stop()
		agg.Stop()
		coord.Stop()
	})
	if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}
	return &reaperWorld{t: t, net: net, agg: agg}
}

func (w *reaperWorld) checkin(clientID int64) server.CheckinResponse {
	w.t.Helper()
	resp, err := w.net.Call("test", "sel", "checkin", server.CheckinRequest{
		ClientID: clientID, Capabilities: []string{"lm"},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return resp.(server.CheckinResponse)
}

func (w *reaperWorld) upload(c server.UploadChunk) server.UploadResponse {
	w.t.Helper()
	resp, err := w.net.Call("test", "sel", "route", server.RouteRequest{
		TaskID: c.TaskID, Method: "upload-chunk", Payload: c,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return resp.(server.UploadResponse)
}

// waitReaped polls until an upload against the session is rejected as
// unknown — the observable fact that the sweep closed it. An accepted
// probe counts as session activity and resets the idle clock, so probes
// are spaced beyond the TTL: the sweep always gets a full idle window
// between them.
func (w *reaperWorld) waitReaped(taskID string, sessionID uint64, probe server.UploadChunk) {
	w.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(150 * time.Millisecond) // > SessionTTL + a heartbeat
		probe.TaskID, probe.SessionID = taskID, sessionID
		ur := w.upload(probe)
		if !ur.OK && strings.Contains(ur.Reason, "unknown session") {
			return
		}
	}
	w.t.Fatalf("session %d never reaped", sessionID)
}

// reaperSpec builds a task whose dimensions deliberately avoid power-of-two
// chunk lengths, so plainly allocated chunk slices can never alias a
// vecpool size class and distort the outstanding-lease accounting.
func reaperSpec(id string, useSecAgg bool, t *testing.T) server.TaskSpec {
	const numParams = 144
	spec := server.TaskSpec{
		ID:              id,
		Mode:            core.Async,
		NumParams:       numParams,
		Concurrency:     1,
		AggregationGoal: 4,
		Capability:      "lm",
		InitParams:      make([]float32, numParams),
		UploadChunkSize: 37,
	}
	if useSecAgg {
		dep, err := secagg.NewDeployment(secagg.Params{
			VecLen: numParams + 1, Threshold: 1, Scale: 1 << 16,
		}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		spec.SecAgg = dep
	}
	return spec
}

func TestSessionReaper(t *testing.T) { forEachFabric(t, testSessionReaper) }

func testSessionReaper(t *testing.T, fx fabricFactory) {
	cases := []struct {
		name      string
		useSecAgg bool
		// dieWith sends the dying client's last traffic before it goes
		// silent; nil means it dies right after join.
		dieWith func(w *reaperWorld, cr server.CheckinResponse)
	}{
		{name: "idle-after-join", dieWith: nil},
		{name: "partial-plain-upload", dieWith: func(w *reaperWorld, cr server.CheckinResponse) {
			// One partial chunk leases the session's pooled reassembly
			// vector — the leak the reaper must fix.
			ur := w.upload(server.UploadChunk{
				TaskID: cr.TaskID, SessionID: cr.SessionID,
				Offset: 0, Data: make([]float32, 37), NumExamples: 1,
			})
			if !ur.OK {
				w.t.Fatalf("partial chunk rejected: %s", ur.Reason)
			}
		}},
		{name: "partial-secagg-upload", useSecAgg: true, dieWith: func(w *reaperWorld, cr server.CheckinResponse) {
			ur := w.upload(server.UploadChunk{
				TaskID: cr.TaskID, SessionID: cr.SessionID,
				Offset: 0, Masked: make([]uint32, 37), NumExamples: 1,
			})
			if !ur.OK {
				w.t.Fatalf("partial masked chunk rejected: %s", ur.Reason)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := newReaperWorld(t, fx, reaperSpec("reap-"+tc.name, tc.useSecAgg, t), reaperTimings())

			baseF, baseU := vecpool.OutstandingFloats(), vecpool.OutstandingUints()
			cr := w.checkin(1)
			if !cr.Accepted {
				t.Fatalf("checkin rejected: %s", cr.Reason)
			}
			if tc.dieWith != nil {
				tc.dieWith(w, cr)
			}
			// The client dies silently here: no fail-session, no close.
			probe := server.UploadChunk{Offset: 0, Data: make([]float32, 37), NumExamples: 1}
			if tc.useSecAgg {
				probe = server.UploadChunk{Offset: 0, Masked: make([]uint32, 37), NumExamples: 1}
			}
			w.waitReaped(cr.TaskID, cr.SessionID, probe)

			// The leased reassembly vector went back to the pool.
			if f, u := vecpool.OutstandingFloats(), vecpool.OutstandingUints(); f != baseF || u != baseU {
				t.Fatalf("leases after reap: floats %d (want %d), uints %d (want %d)",
					f, baseF, u, baseU)
			}
			// The concurrency slot (Concurrency: 1) is free again.
			deadline := time.Now().Add(5 * time.Second)
			for {
				cr2 := w.checkin(2)
				if cr2.Accepted {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("slot never freed after reap: %s", cr2.Reason)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}

	t.Run("active-session-survives", func(t *testing.T) {
		// An hour-long TTL keeps the heartbeat's own sweep out of the way;
		// every sweep below happens at an instant the test names.
		tm := testTimings()
		tm.SessionTTL = time.Hour
		w := newReaperWorld(t, fx, reaperSpec("reap-active", false, t), tm)
		const reapedSample = `papaya_sessions_reaped_total{node="agg"}`
		baseF, reaped0 := vecpool.OutstandingFloats(), obsCounter(reapedSample)
		cr := w.checkin(1)
		if !cr.Accepted {
			t.Fatalf("checkin rejected: %s", cr.Reason)
		}
		chunk := func(i int) server.UploadResponse {
			return w.upload(server.UploadChunk{
				TaskID: cr.TaskID, SessionID: cr.SessionID,
				Offset: i * 37, Data: make([]float32, 37), NumExamples: 1,
			})
		}
		if ur := chunk(0); !ur.OK {
			t.Fatalf("first chunk rejected: %s", ur.Reason)
		}
		lastActive, ok := w.agg.SessionLastActive(cr.TaskID, cr.SessionID)
		if !ok {
			t.Fatal("session unknown right after its first chunk")
		}

		// Half a TTL after its last chunk the session survives the sweep,
		// and its next chunk is accepted and counts as fresh activity.
		w.agg.ReapSessionsAt(lastActive.Add(tm.SessionTTL / 2))
		if ur := chunk(1); !ur.OK {
			t.Fatalf("active session's next chunk rejected: %s", ur.Reason)
		}
		touched, _ := w.agg.SessionLastActive(cr.TaskID, cr.SessionID)
		if !touched.After(lastActive) {
			t.Fatalf("second chunk did not advance lastActive (%v -> %v)", lastActive, touched)
		}
		// An instant that would have been fatal before the second chunk is
		// not any more: the TTL runs from the latest activity.
		w.agg.ReapSessionsAt(lastActive.Add(tm.SessionTTL + time.Nanosecond))
		if _, ok := w.agg.SessionLastActive(cr.TaskID, cr.SessionID); !ok {
			t.Fatal("session reaped although its last chunk was inside the TTL")
		}
		if d := obsCounter(reapedSample) - reaped0; d != 0 {
			t.Fatalf("sessions_reaped_total moved by %g while the session was active", d)
		}

		// Two TTLs of silence: reaped, counted once, lease returned, and a
		// late chunk is refused.
		w.agg.ReapSessionsAt(touched.Add(2 * tm.SessionTTL))
		if _, ok := w.agg.SessionLastActive(cr.TaskID, cr.SessionID); ok {
			t.Fatal("session survived two TTLs of silence")
		}
		if d := obsCounter(reapedSample) - reaped0; d != 1 {
			t.Fatalf("sessions_reaped_total moved by %g after one reap, want 1", d)
		}
		if f := vecpool.OutstandingFloats(); f != baseF {
			t.Fatalf("float leases after reap: %d, want %d", f, baseF)
		}
		if ur := chunk(2); ur.OK || !strings.Contains(ur.Reason, "unknown session") {
			t.Fatalf("chunk after reap = %+v, want unknown session", ur)
		}
	})
}
