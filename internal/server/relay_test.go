package server_test

// Relay conformance. The selector answers an in-session call with a
// transport.Forward and the fabric moves the frame. On every carrier: an
// elided chunk train crosses the selector ->
// aggregator hop as one acknowledged exchange; a failure the aggregator
// holds mid-train answers the Done call with the aggregator's reason; a
// fault between chunks reaches the client as its sentinel on Done and the
// acked restart counts the update exactly once; a client that closes
// mid-train leaves no upstream session for a later call to inherit; and
// pooled vectors balance with no foreign Put.

import (
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/vecpool"
)

// relayCells are the in-memory fabric, HTTP and raw TCP. The -deflate
// cells once compressed every frame; that stage is gone, so they build the
// same fabric as their carrier and stay listed only because tier-1's floor
// pins them by name (see fabricFactories).
var relayCells = []string{"inmem", "http", "http-deflate", "tcp", "tcp-deflate"}

func forEachRelayCell(t *testing.T, run func(t *testing.T, cell string)) {
	for _, cell := range relayCells {
		t.Run(cell, func(t *testing.T) { run(t, cell) })
	}
}

// relayTimings park every background loop (heartbeat, failure check, map
// refresh, reaper) for a test's lifetime, so the fabrics' counters move
// only with the traffic the test drives.
func relayTimings() server.Timings {
	return server.Timings{Heartbeat: time.Hour, FailureDeadline: time.Hour, MapRefresh: time.Hour, SessionTTL: time.Hour}
}

func relaySpec(id string, params, chunk int, mode core.Algorithm) server.TaskSpec {
	return server.TaskSpec{
		ID: id, Mode: mode, NumParams: params, Concurrency: 64, AggregationGoal: 1,
		InitParams: make([]float32, params), UploadChunkSize: chunk,
	}
}

// relayDelta is an update of normal deviates: a 128 KiB chunk of it passes
// the 64 KiB no-ack flush threshold on its own on every cell.
func relayDelta(n int) []float32 {
	r := rng.New(7)
	d := make([]float32, n)
	for i := range d {
		d[i] = float32(r.NormFloat64())
	}
	return d
}

// recordingFabric decorates the serving fabric the way an observability
// wrapper does, through Register alone: it counts the aggregator's
// upload-chunk calls and keeps every handler, so a crashed node can come
// back with its state.
type recordingFabric struct {
	testFabric
	chunks   atomic.Int64
	handlers map[string]transport.Handler
}

func (f *recordingFabric) Register(name string, h transport.Handler) {
	f.handlers[name] = h
	f.testFabric.Register(name, func(method string, payload any) (any, error) {
		if name == "agg" && method == "upload-chunk" {
			f.chunks.Add(1)
		}
		return h(method, payload)
	})
}

// restart re-registers a crashed node, which clears its crash marker.
func (f *recordingFabric) restart(name string) { f.Register(name, f.handlers[name]) }

// relayWorld is one control plane — coordinator, aggregator "agg",
// selector "sel" — on a serving fabric, and the fabric its clients call
// through: on a networked cell a second instance of the same kind that
// discovered the first (a deployment's shape, and the benchmark's), in
// memory the same Network.
type relayWorld struct {
	t      *testing.T
	task   string
	serve  *recordingFabric
	client testFabric
}

type discoverer interface {
	BaseURL() string
	Discover(addr string) ([]string, error)
}

func newRelayWorld(t *testing.T, cell string, spec server.TaskSpec) *relayWorld {
	t.Helper()
	mk := fabricMaker(cell)
	w := &relayWorld{t: t, task: spec.ID,
		serve: &recordingFabric{testFabric: mk(t, 41), handlers: make(map[string]transport.Handler)}}
	coord := server.NewCoordinator("coordinator", w.serve, relayTimings(), 7, false)
	agg := server.NewAggregator("agg", w.serve, "coordinator", relayTimings())
	sel := server.NewSelector("sel", w.serve, "coordinator", relayTimings())
	t.Cleanup(func() {
		sel.Stop()
		agg.Stop()
		coord.Stop()
	})
	if _, err := w.serve.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.serve.Call("test", "coordinator", "create-task", spec); err != nil {
		t.Fatal(err)
	}
	w.client = w.serve.testFabric
	if cell != "inmem" {
		c := mk(t, 42)
		if _, err := c.(discoverer).Discover(w.serve.testFabric.(discoverer).BaseURL()); err != nil {
			t.Fatal(err)
		}
		w.client = c
	}
	return w
}

func (w *relayWorld) networked() bool { return w.client != w.serve.testFabric }

// checkin opens a client session to the selector and checks in over it,
// as the client runtime does.
func (w *relayWorld) checkin(id int64, trace uint64) (transport.Session, server.CheckinResponse) {
	w.t.Helper()
	sess, err := transport.OpenSession(w.client, fmt.Sprintf("client-%d", id), "sel")
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { _ = sess.Close() })
	resp, err := sess.Call("checkin", server.CheckinRequest{ClientID: id, TraceID: trace})
	if err != nil {
		w.t.Fatal(err)
	}
	cr := resp.(server.CheckinResponse)
	if !cr.Accepted {
		w.t.Fatalf("check-in rejected: %s", cr.Reason)
	}
	return sess, cr
}

// uploadChunks cuts delta into a session's upload chunks of n elements.
func uploadChunks(cr server.CheckinResponse, delta []float32, n int) []server.UploadChunk {
	var out []server.UploadChunk
	for off := 0; off < len(delta); off += n {
		out = append(out, server.UploadChunk{
			TaskID: cr.TaskID, SessionID: cr.SessionID, Offset: off, NumExamples: 1,
			Data: delta[off:min(off+n, len(delta))], Done: off+n >= len(delta),
		})
	}
	return out
}

func eliding(sess transport.Session) bool {
	es, ok := sess.(transport.ElidingSession)
	return ok && es.ElidesAcks()
}

// train sends chunks over sess as the client runtime does: every chunk but
// the last unacknowledged where the session elides, each acknowledged
// otherwise. after, when set, runs once chunk i has been sent. It returns
// the first acknowledged answer that failed or rejected, else the Done
// chunk's, with the index of the chunk it answered.
func (w *relayWorld) train(sess transport.Session, chunks []server.UploadChunk, trace uint64, after func(i int)) (resp any, err error, at int) {
	w.t.Helper()
	elide := eliding(sess)
	for i, c := range chunks {
		req := server.RouteRequest{TaskID: c.TaskID, Method: "upload-chunk", Payload: c, TraceID: trace}
		if elide && !c.Done {
			if err := sess.(transport.ElidingSession).SendNoAck("route", req); err != nil {
				w.t.Fatalf("no-ack chunk %d: %v", i, err)
			}
		} else {
			resp, err = sess.Call("route", req)
			if ur, ok := resp.(server.UploadResponse); err != nil || !ok || !ur.OK || c.Done {
				return resp, err, i
			}
		}
		if after != nil {
			after(i)
		}
	}
	w.t.Fatal("chunk train without a Done chunk")
	return nil, nil, 0
}

// waitChunks waits until the aggregator has served n upload-chunk calls.
func (w *relayWorld) waitChunks(n int64) {
	w.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); w.serve.chunks.Load() < n; {
		if time.Now().After(deadline) {
			w.t.Fatalf("aggregator served %d chunks, want %d", w.serve.chunks.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// taskInfo asks for the task through the selector, like any client.
func (w *relayWorld) taskInfo() server.TaskInfo {
	w.t.Helper()
	resp, err := w.client.Call("probe", "sel", "route", server.RouteRequest{TaskID: w.task, Method: "task-info", Payload: w.task})
	if err != nil {
		w.t.Fatalf("task-info: %v", err)
	}
	info, ok := resp.(server.TaskInfo)
	if !ok {
		w.t.Fatalf("task-info answered with %T %+v", resp, resp)
	}
	return info
}

type relayStats struct{ serve, client transport.Stats }

func (w *relayWorld) stats() relayStats {
	var s relayStats
	if st, ok := w.serve.testFabric.(statser); ok {
		s.serve = st.Stats()
	}
	if st, ok := w.client.(statser); ok {
		s.client = st.Stats()
	}
	return s
}

// TestRelayTrainCrossesInnerHopOnce: an elided train of K chunks costs each
// hop one acknowledged exchange — the serving fabric's outbound round trips
// move by one, not K — while the aggregator serves every chunk once and
// counts the update once. In memory every chunk is acknowledged, on both
// hops alike. The selector's route span covers the forwarded exchange: the
// Done chunk's route span contains the aggregator's span for that chunk.
func TestRelayTrainCrossesInnerHopOnce(t *testing.T) {
	forEachRelayCell(t, testRelayTrainCrossesInnerHopOnce)
}

func testRelayTrainCrossesInnerHopOnce(t *testing.T, cell string) {
	const k, chunk = 8, 8
	w := newRelayWorld(t, cell, relaySpec("train", k*chunk, chunk, core.Async))
	trace := obs.NextTraceID(1)
	sess, cr := w.checkin(1, trace)

	before := w.stats()
	resp, err, at := w.train(sess, uploadChunks(cr, relayDelta(k*chunk), chunk), trace, nil)
	if ur, ok := resp.(server.UploadResponse); err != nil || !ok || !ur.OK || at != k-1 {
		t.Fatalf("train answered %+v, %v at chunk %d", resp, err, at)
	}
	after := w.stats()
	if got := w.serve.chunks.Load(); got != k {
		t.Fatalf("aggregator served %d upload-chunk calls for a %d-chunk train", got, k)
	}
	if w.networked() {
		clientHop := after.client.RoundTrips - before.client.RoundTrips
		innerHop := after.serve.RoundTrips - before.serve.RoundTrips
		if clientHop != 1 || innerHop != 1 {
			t.Fatalf("acknowledged exchanges for a %d-chunk elided train: client hop %d, selector -> aggregator hop %d; want 1 and 1",
				k, clientHop, innerHop)
		}
		if calls := after.serve.Calls - before.serve.Calls; calls != k {
			t.Fatalf("selector forwarded %d calls for %d chunks", calls, k)
		}
	}
	if info := w.taskInfo(); info.Updates != 1 || info.Version != 1 {
		t.Fatalf("after one upload: updates %d, version %d", info.Updates, info.Version)
	}

	var route, chunkSpan obs.Span
	routes := 0
	for _, s := range obs.Spans().Snapshot(trace) {
		switch {
		case s.Tier == "selector" && s.Name == "route/upload-chunk":
			routes++
			if s.StartUnixNano > route.StartUnixNano {
				route = s
			}
		case s.Tier == "aggregator" && s.Name == "chunk" && s.StartUnixNano > chunkSpan.StartUnixNano:
			chunkSpan = s
		}
	}
	if routes != k {
		t.Fatalf("%d selector route spans for %d chunks", routes, k)
	}
	if chunkSpan.StartUnixNano < route.StartUnixNano ||
		chunkSpan.StartUnixNano+chunkSpan.DurationNanos > route.StartUnixNano+route.DurationNanos {
		t.Fatalf("Done chunk's route span %+v does not cover the aggregator's %+v", route, chunkSpan)
	}
}

// TestRelayHeldFailureAnswersDone: a failure the aggregator holds mid-train
// reaches the client as the Done call's answer, with the aggregator's own
// reason: an out-of-bounds chunk, and a chunk of a session whose sync round
// closed. In memory, where every chunk is acknowledged, the failing chunk's
// own answer carries it.
func TestRelayHeldFailureAnswersDone(t *testing.T) {
	forEachRelayCell(t, testRelayHeldFailureAnswersDone)
}

func testRelayHeldFailureAnswersDone(t *testing.T, cell string) {
	const k, chunk = 4, 8
	expect := func(t *testing.T, w *relayWorld, sess transport.Session, chunks []server.UploadChunk, failing int, reason string) {
		t.Helper()
		resp, err, at := w.train(sess, chunks, 0, nil)
		if eliding(sess) {
			failing = len(chunks) - 1
		}
		if ur, ok := resp.(server.UploadResponse); err != nil || !ok || ur.OK || ur.Reason != reason || at != failing {
			t.Fatalf("answer %+v, %v at chunk %d; want %q at chunk %d", resp, err, at, reason, failing)
		}
	}
	t.Run("chunk-out-of-bounds", func(t *testing.T) {
		w := newRelayWorld(t, cell, relaySpec("held", k*chunk, chunk, core.Async))
		sess, cr := w.checkin(1, 0)
		chunks := uploadChunks(cr, relayDelta(k*chunk), chunk)
		chunks[1].Offset = k * chunk
		expect(t, w, sess, chunks, 1, "chunk out of bounds")
	})
	t.Run("aborted-session", func(t *testing.T) {
		w := newRelayWorld(t, cell, relaySpec("held", k*chunk, chunk, core.Sync))
		sess, cr := w.checkin(1, 0)
		// A second client's update closes the round (goal 1), aborting the
		// first client's session.
		other, ocr := w.checkin(2, 0)
		if resp, err, _ := w.train(other, uploadChunks(ocr, relayDelta(k*chunk), chunk), 0, nil); err != nil || !resp.(server.UploadResponse).OK {
			t.Fatalf("closing upload: %+v, %v", resp, err)
		}
		expect(t, w, sess, uploadChunks(cr, relayDelta(k*chunk), chunk), 0, "round closed")
	})
}

// TestRelayFaultBetweenChunks: a crashed aggregator, or a partition between
// selector and aggregator, injected after the first chunk reached the
// aggregator, reaches the client as the matching sentinel on the Done call
// (on the next chunk in memory). Once the fault clears, the client's
// restart — the whole upload again, every chunk acknowledged, per call —
// completes, and the update is counted exactly once.
func TestRelayFaultBetweenChunks(t *testing.T) {
	forEachRelayCell(t, testRelayFaultBetweenChunks)
}

func testRelayFaultBetweenChunks(t *testing.T, cell string) {
	// 128 KiB chunks: every no-ack send flushes on its own, so the first
	// chunk has crossed both hops before the fault lands.
	const k, chunk = 4, 32 << 10
	faults := []struct {
		name          string
		sentinel      error
		inject, clear func(w *relayWorld)
	}{
		{"crash-agg", transport.ErrCrashed,
			func(w *relayWorld) { w.serve.Crash("agg") }, func(w *relayWorld) { w.serve.restart("agg") }},
		{"partition-sel-agg", transport.ErrPartitioned,
			func(w *relayWorld) { w.serve.Partition("sel", "agg") }, func(w *relayWorld) { w.serve.Heal("sel", "agg") }},
	}
	for _, fc := range faults {
		t.Run(fc.name, func(t *testing.T) {
			w := newRelayWorld(t, cell, relaySpec("fault", k*chunk, chunk, core.Async))
			sess, cr := w.checkin(1, 0)
			chunks := uploadChunks(cr, relayDelta(k*chunk), chunk)
			_, err, at := w.train(sess, chunks, 0, func(i int) {
				if i == 0 {
					w.waitChunks(1)
					fc.inject(w)
				}
			})
			want := 1
			if eliding(sess) {
				want = k - 1
			}
			if !errors.Is(err, fc.sentinel) || at != want {
				t.Fatalf("answer %v at chunk %d; want %v at chunk %d", err, at, fc.sentinel, want)
			}
			_ = sess.Close()
			fc.clear(w)

			for _, c := range chunks {
				resp, err := w.client.Call("client-1", "sel", "route",
					server.RouteRequest{TaskID: c.TaskID, Method: "upload-chunk", Payload: c})
				if ur, ok := resp.(server.UploadResponse); err != nil || !ok || !ur.OK {
					t.Fatalf("acked restart, chunk at %d: %+v, %v", c.Offset, resp, err)
				}
			}
			if info := w.taskInfo(); info.Updates != 1 || info.Version != 1 {
				t.Fatalf("after the restart: updates %d, version %d; want the update counted once", info.Updates, info.Version)
			}
		})
	}
}

// TestRelayClientCloseMidTrain: a client that closes its session mid-train,
// with a failure held on the aggregator's side of the upstream session,
// leaves that session to no one — every later call through the selector
// gets its own answer, never the abandoned train's held failure — and no
// goroutine outlives the plane.
func TestRelayClientCloseMidTrain(t *testing.T) {
	forEachRelayCell(t, testRelayClientCloseMidTrain)
}

func testRelayClientCloseMidTrain(t *testing.T, cell string) {
	const k, chunk = 4, 32 << 10
	base := runtime.NumGoroutine()
	t.Run("plane", func(t *testing.T) {
		w := newRelayWorld(t, cell, relaySpec("close", k*chunk, chunk, core.Async))
		sess, cr := w.checkin(1, 0)
		chunks := uploadChunks(cr, relayDelta(k*chunk), chunk)
		chunks[1].Offset = k * chunk // held by the aggregator when elided
		req := func(c server.UploadChunk) server.RouteRequest {
			return server.RouteRequest{TaskID: c.TaskID, Method: "upload-chunk", Payload: c}
		}
		for _, c := range chunks[:2] {
			if es, ok := sess.(transport.ElidingSession); ok && es.ElidesAcks() {
				if err := es.SendNoAck("route", req(c)); err != nil {
					t.Fatal(err)
				}
			} else if _, err := sess.Call("route", req(c)); err != nil {
				t.Fatal(err)
			}
		}
		w.waitChunks(2)
		_ = sess.Close()
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			w.taskInfo()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+3 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			t.Fatalf("goroutine leak: %d before the plane, %d after\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRelayVecpoolBalance: sessions of a power-of-two model through the
// selector (download, report, chunked upload, and task-info) end with the
// pooled-vector count exactly at its baseline, and with the provenance
// table on, no Put of a vector the pool never leased. A relaying selector
// never decodes a model vector, so it never releases one it does not own.
func TestRelayVecpoolBalance(t *testing.T) { forEachRelayCell(t, testRelayVecpoolBalance) }

func testRelayVecpoolBalance(t *testing.T, cell string) {
	const params, chunk, sessions = 256, 64, 12
	delta := relayDelta(params)
	for _, debug := range []bool{false, true} {
		t.Run(fmt.Sprintf("debug=%v", debug), func(t *testing.T) {
			vecpool.SetDebug(debug)
			defer vecpool.SetDebug(false)
			spec := relaySpec("balance", params, chunk, core.Async)
			spec.AggregationGoal = 4
			w := newRelayWorld(t, cell, spec)
			baseF, baseU := vecpool.OutstandingFloats(), vecpool.OutstandingUints()
			for i := 0; i < sessions; i++ {
				store := client.NewExampleStore(0, 0)
				store.Add([]int{1, 2, 3}, time.Now())
				dev := &client.Runtime{
					ClientID: int64(i + 1), Store: store, Exec: fixedExecutor{delta: delta},
					Net: w.client, Selectors: []string{"sel"}, Random: rand.Reader, Compress: []string{"none"},
					State: client.DeviceState{Idle: true, Charging: true, Unmetered: true},
				}
				res, err := dev.RunOnce(time.Now())
				if err != nil || res.Outcome != client.Completed {
					t.Fatalf("session %d: %+v, %v", i, res, err)
				}
			}
			info := w.taskInfo()
			if info.Updates != sessions || len(info.Params) != params {
				t.Fatalf("task-info after %d sessions: updates %d, %d params", sessions, info.Updates, len(info.Params))
			}
			if f, u := vecpool.OutstandingFloats(), vecpool.OutstandingUints(); f != baseF || u != baseU {
				t.Fatalf("pooled vectors drifted over %d sessions: floats %d -> %d, uints %d -> %d", sessions, baseF, f, baseU, u)
			}
			if debug && vecpool.ForeignPuts() != 0 {
				t.Fatalf("%d foreign Puts over %d sessions", vecpool.ForeignPuts(), sessions)
			}
		})
	}
}
