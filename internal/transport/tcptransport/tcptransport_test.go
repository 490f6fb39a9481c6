package tcptransport

// Tests for the raw-TCP backend. What every networked fabric shares is
// specified once in streamcore/fabrictest and run here over real TCP
// sockets; the rest covers what this package adds — the hello handshake —
// plus the allocation gate on the pipelined send path (the whole point of
// the backend is removing per-call overhead, so the gate keeps it removed).

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/streamcore/fabrictest"
	"repro/internal/transport/wire"
)

func newTestFabric(t *testing.T, opts Options) *Fabric {
	t.Helper()
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	f, err := New(opts)
	if err != nil {
		t.Fatalf("starting tcp fabric: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

func newSuiteFabric(t *testing.T) fabrictest.Fabric { return newTestFabric(t, Options{Seed: 42}) }

func TestFaultParity(t *testing.T)             { fabrictest.FaultParity(t, newSuiteFabric) }
func TestFaultParityMidSession(t *testing.T)   { fabrictest.FaultParityMidSession(t, newSuiteFabric) }
func TestDiscoveryAndAdvertise(t *testing.T)   { fabrictest.DiscoveryAndAdvertise(t, newSuiteFabric) }
func TestRouteGossipIsTransitive(t *testing.T) { fabrictest.RouteGossipIsTransitive(t, newSuiteFabric) }
func TestAckElideEndToEnd(t *testing.T)        { fabrictest.AckElideEndToEnd(t, newSuiteFabric) }
func TestReservedNodeNameRejected(t *testing.T) {
	fabrictest.ReservedNodeNameRejected(t, newSuiteFabric)
}
func TestAckElideHeldFailureSurfacesOnNextCall(t *testing.T) {
	fabrictest.AckElideHeldFailureSurfacesOnNextCall(t, newSuiteFabric)
}
func TestCloseDoesNotLeakGoroutines(t *testing.T) {
	fabrictest.CloseDoesNotLeakGoroutines(t, newSuiteFabric)
}
func TestUnknownVersionKillsSession(t *testing.T) {
	fabrictest.UnknownVersionKillsSession(t, newSuiteFabric,
		func(f fabrictest.Fabric, node string) (streamcore.Conn, error) {
			return dial(strings.TrimPrefix(f.BaseURL(), Scheme), node, 5*time.Second)
		})
}

// TestCallRoundTrip drives a registered-message call through the loopback
// listener, and pins the frozen Options.Codec contract: "" and "bin" name
// the one wire format, anything else is refused.
func TestCallRoundTrip(t *testing.T) {
	t.Run("bin", func(t *testing.T) {
		f := newTestFabric(t, Options{Codec: "bin"})
		f.Register("agg", func(method string, payload any) (any, error) {
			req := payload.(server.JoinRequest)
			return server.JoinResponse{Accepted: true, SessionID: uint64(req.ClientID) + 1}, nil
		})
		out, err := f.Call("client-7", "agg", "join", server.JoinRequest{TaskID: "t", ClientID: 7})
		if err != nil {
			t.Fatal(err)
		}
		if resp := out.(server.JoinResponse); !resp.Accepted || resp.SessionID != 8 {
			t.Fatalf("response = %+v", resp)
		}
	})
	if f, err := New(Options{Listen: "127.0.0.1:0", Codec: "gob"}); err == nil {
		f.Close()
		t.Fatal("a codec other than bin was accepted")
	}
}

// TestUnknownHelloRefused: a connection that does not open with this
// build's hello — garbage, or a hello from a build one version ahead — is
// closed before any frame is served.
func TestUnknownHelloRefused(t *testing.T) {
	f := newTestFabric(t, Options{})
	f.Register("node", func(string, any) (any, error) { return true, nil })
	future := wire.AppendStreamHello(nil, "node")
	future[3] = wire.Version + 1
	for name, hello := range map[string][]byte{"version+1": future, "garbage": []byte("GET / HTTP/1.1")} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(f.BaseURL(), Scheme))
		if err != nil {
			t.Fatal(err)
		}
		req, err := wire.Binary{}.AppendRequest(nil, &wire.Request{From: "c", Method: "m"})
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(wire.AppendStreamFrame(wire.AppendStreamFrame(nil, 0, hello), 0, req)); err != nil {
			t.Fatal(err)
		}
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, net.ErrClosed) {
			t.Fatalf("%s: read %d bytes, err %v; want the server to hang up unanswered", name, n, err)
		}
		conn.Close()
	}
}

// TestLossInjection checks SetLoss produces ErrDropped without touching
// the server side.
func TestLossInjection(t *testing.T) {
	f := newTestFabric(t, Options{Seed: 42})
	// The handler runs on the serving goroutine; the test's read at the end
	// is ordered only by socket I/O, which the race detector cannot see.
	var served atomic.Int64
	f.Register("node", func(method string, payload any) (any, error) {
		served.Add(1)
		return true, nil
	})
	f.SetLoss(0.5)
	drops := 0
	for i := 0; i < 40; i++ {
		if _, err := f.Call("c", "node", "ping", nil); errors.Is(err, transport.ErrDropped) {
			drops++
		} else if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if drops == 0 || drops == 40 {
		t.Fatalf("drops = %d/40 at p=0.5", drops)
	}
	if served.Load() != int64(40-drops) {
		t.Fatalf("served %d, want %d (drops must not reach the handler)", served.Load(), 40-drops)
	}
}

// TestOpenSessionPipelines runs a session's worth of calls over one
// dedicated connection.
func TestOpenSessionPipelines(t *testing.T) {
	f := newTestFabric(t, Options{})
	var seen atomic.Int64
	f.Register("agg", func(method string, payload any) (any, error) {
		seen.Add(1)
		return server.UploadResponse{OK: true}, nil
	})
	sess, err := f.OpenSession("client-1", "agg")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		out, err := sess.Call("upload-chunk", server.UploadChunk{
			TaskID: "t", SessionID: 1, Offset: i * 4, Data: []float32{1, 2, 3, 4},
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !out.(server.UploadResponse).OK {
			t.Fatalf("chunk %d rejected", i)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Call("upload-chunk", nil); err == nil {
		t.Fatal("call after close succeeded")
	}
	if seen.Load() != 32 {
		t.Fatalf("handler saw %d chunks", seen.Load())
	}
}

// discardConn swallows writes and never delivers reads — a streamcore.Conn
// sink for measuring the send path without a live peer.
type discardConn struct{}

func (discardConn) ReadFrame(int) (byte, []byte, error) {
	return 0, nil, errors.New("discardConn: no reads")
}
func (discardConn) WriteFrames(bufs net.Buffers) (int64, error) {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n, nil
}
func (discardConn) SetDeadline(time.Time) error { return nil }
func (discardConn) Close() error                { return nil }
func (discardConn) ReleaseReader()              {}

// TestPipelinedChunkSendAllocs is the alloc gate on the streaming hot
// path: sending one pipelined no-ack upload chunk
// (encode the frame into pooled scratch, length-prefix it, coalesce and
// write it) must stay <= 2 heap allocations — the same discipline the wire
// benches enforce on the decode side. Regressions here mean the engine's
// per-session scratch reuse broke.
func TestPipelinedChunkSendAllocs(t *testing.T) {
	s := streamcore.NewSession(discardConn{}, streamcore.Config{
		Node:     "agg",
		Prefix:   "tcptransport",
		MaxFrame: streamcore.MaxFrame,
		Counters: &streamcore.Counters{},
	})
	chunk := server.UploadChunk{
		TaskID:    "bench-task",
		SessionID: 9,
		Offset:    4096,
		Data:      make([]float32, 1024),
	}
	var payload any = chunk // box once, outside the measured loop
	// Warm the scratch buffers and frame pool.
	if err := s.SendNoAck("client-1", "upload-chunk", payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.SendNoAck("client-1", "upload-chunk", payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("pipelined chunk send costs %.1f allocs, want <= 2", allocs)
	}
}
