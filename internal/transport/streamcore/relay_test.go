package streamcore

// Tests for the relay on a fabric that dials itself: handlers answering
// with transport.Forward, the upstream session's pool discipline, and the
// allocation cost of relaying one no-ack chunk through the real selector.

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// loopFabric is a Fabric whose connections are served by its own
// ServeConn over net.Pipe — a process calling itself through its listener.
// It records, per dialed node, a channel closed once that connection's
// serving loop has exited. Nodes in sinks dial a conn that swallows every
// frame instead.
type loopFabric struct {
	*Fabric
	sinks map[string]bool

	mu     sync.Mutex
	served map[string][]chan struct{}
}

const loopAddr = "self:1"

func newLoopFabric(t *testing.T, sinks ...string) *loopFabric {
	t.Helper()
	lf := &loopFabric{sinks: make(map[string]bool), served: make(map[string][]chan struct{})}
	for _, n := range sinks {
		lf.sinks[n] = true
	}
	f := NewFabric(Options{Prefix: "test", Addr: loopAddr, Dial: lf.dial})
	lf.Fabric = f
	t.Cleanup(f.CloseSessions)
	return lf
}

func (lf *loopFabric) dial(addr, node string, timeout time.Duration) (Conn, error) {
	if lf.sinks[node] {
		return sinkConn{}, nil
	}
	c1, c2 := net.Pipe()
	done := make(chan struct{})
	lf.mu.Lock()
	lf.served[node] = append(lf.served[node], done)
	lf.mu.Unlock()
	go func() {
		defer close(done)
		defer c2.Close()
		lf.ServeConn(node, NewNetConn(c2))
	}()
	return NewNetConn(c1), nil
}

// servedBy returns the i-th connection dialed toward node.
func (lf *loopFabric) servedBy(t *testing.T, node string, i int) chan struct{} {
	t.Helper()
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if i >= len(lf.served[node]) {
		t.Fatalf("%d connections dialed toward %s, want at least %d", len(lf.served[node]), node, i+1)
	}
	return lf.served[node][i]
}

func (lf *loopFabric) dials(node string) int {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return len(lf.served[node])
}

func (lf *loopFabric) idle(node string) int {
	lf.pool.mu.Lock()
	defer lf.pool.mu.Unlock()
	return len(lf.pool.idle[sessionKey(loopAddr, node)])
}

func waitClosed(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never ended", what)
	}
}

// sinkConn swallows every frame written to it; a read never returns.
type sinkConn struct{}

func (sinkConn) ReadFrame(int) (byte, []byte, error) { select {} }
func (sinkConn) WriteFrames(bufs net.Buffers) (int64, error) {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n, nil
}
func (sinkConn) SetDeadline(time.Time) error { return nil }
func (sinkConn) ReleaseReader()              {}
func (sinkConn) Close() error                { return nil }

// TestRelayDiscardsUnansweredUpstream: an upstream session whose train
// ended in an acknowledged exchange goes back to the pool; one the inbound
// session abandoned with no-ack frames still unanswered is torn down (its
// far-side serving loop exits) and never parked, where a later caller
// would inherit the failure held for the abandoned train.
func TestRelayDiscardsUnansweredUpstream(t *testing.T) {
	lf := newLoopFabric(t)
	var served atomic.Int64
	lf.Register("agg", func(method string, _ any) (any, error) {
		served.Add(1)
		return ack{OK: method != "bad", Reason: "nope"}, nil
	})
	lf.Register("sel", func(method string, payload any) (any, error) {
		return transport.Forward{To: "agg", Method: method, Payload: payload}, nil
	})

	sess, err := lf.OpenSession("client", "sel")
	if err != nil {
		t.Fatal(err)
	}
	es := sess.(transport.ElidingSession)
	for i := 0; i < 2; i++ {
		if err := es.SendNoAck("ok", "x"); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := sess.Call("done", "x"); err != nil || !out.(ack).OK {
		t.Fatalf("answered train = %v, %v", out, err)
	}
	_ = sess.Close()
	waitClosed(t, lf.servedBy(t, "sel", 0), "the first inbound session")
	if lf.idle("agg") != 1 {
		t.Fatalf("%d idle upstream sessions after an answered train, want it pooled", lf.idle("agg"))
	}

	// Frames of 64 KiB flush on their own, so both reach the relay before
	// the client goes away; the second one's failure is held upstream.
	big := string(make([]byte, coalesceFlushBytes))
	sess, err = lf.OpenSession("client", "sel")
	if err != nil {
		t.Fatal(err)
	}
	es = sess.(transport.ElidingSession)
	for _, m := range []string{"ok", "bad"} {
		if err := es.SendNoAck(m, big); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); served.Load() < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("aggregator served %d frames, want 5", served.Load())
		}
		time.Sleep(time.Millisecond)
	}
	_ = sess.Close()
	waitClosed(t, lf.servedBy(t, "sel", 1), "the abandoned inbound session")
	waitClosed(t, lf.servedBy(t, "agg", 0), "the abandoned train's upstream session")
	if n := lf.idle("agg"); n != 0 || lf.dials("agg") != 1 {
		t.Fatalf("%d idle upstream sessions, %d dialed; want the one session reused, then discarded", n, lf.dials("agg"))
	}

	// A later call through the relay gets its own answer on a new session.
	if out, err := lf.Call("client", "sel", "ping", "x"); err != nil || !out.(ack).OK {
		t.Fatalf("call after the abandoned train = %v, %v", out, err)
	}
}

// scriptConn replays one request frame n times, then ends the stream; it
// fails the test if the serving loop ever writes.
type scriptConn struct {
	t     *testing.T
	flags byte
	frame []byte
	n     int
}

func (c *scriptConn) ReadFrame(int) (byte, []byte, error) {
	if c.n == 0 {
		return 0, nil, io.EOF
	}
	c.n--
	return c.flags, c.frame, nil
}
func (c *scriptConn) WriteFrames(net.Buffers) (int64, error) {
	c.t.Error("a relayed no-ack frame was answered")
	return 0, io.ErrClosedPipe
}
func (c *scriptConn) SetDeadline(time.Time) error { return nil }
func (c *scriptConn) ReleaseReader()              {}
func (c *scriptConn) Close() error                { return nil }

// TestRelayNoAckChunkAllocs fences the selector's per-chunk cost of an
// elided train: decoding the route envelope (scalars only; the 16 KiB
// vector stays bytes), the real selector's routing answer, and queueing the
// relayed frame upstream. Measured at 9 allocations per chunk on x86-64
// with go1.24: the decoded request and its boxed payloads, the dispatch
// response, the routing directive with its closures and what they capture,
// and the route span's name. The fence, 12, has room for noise but not for
// a decoded vector or a per-frame encode buffer.
func TestRelayNoAckChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	lf := newLoopFabric(t, "agg")
	lf.Register("agg", func(string, any) (any, error) { return nil, nil }) // dialed as a sink
	lf.Register("coordinator", func(method string, _ any) (any, error) {
		return server.MapResponse{Assignments: map[string]server.Assignment{
			"t": {TaskID: "t", Aggregator: "agg", Seq: 1},
		}}, nil
	})
	sel := server.NewSelector("sel", lf, "coordinator", server.Timings{MapRefresh: time.Hour})
	defer sel.Stop()

	frame, err := wire.Binary{}.AppendRequest(nil, &wire.Request{From: "client-1", Method: "route", Payload: server.RouteRequest{
		TaskID: "t", Method: "upload-chunk",
		Payload: server.UploadChunk{TaskID: "t", SessionID: 1, Offset: 0, Data: make([]float32, 4096), NumExamples: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServeConfig{
		MaxFrame: MaxFrame, Prefix: "test", Counters: &lf.counters,
		Invoke: func(req *wire.Request) *wire.Response { return lf.dispatch("sel", req) },
		relay:  &upstream{f: lf.Fabric, from: "sel"},
	}
	const frames = 2000
	serve := func() { Serve(&scriptConn{t: t, flags: wire.StreamFlagNoAck, frame: frame, n: frames}, cfg) }
	serve() // learn the assignment, warm the pools
	allocs := testing.AllocsPerRun(3, serve) / frames
	t.Logf("relaying one no-ack chunk: %.2f allocs", allocs)
	if allocs > 12 {
		t.Fatalf("relaying one no-ack chunk allocates %.2f times, fence 12", allocs)
	}
}
