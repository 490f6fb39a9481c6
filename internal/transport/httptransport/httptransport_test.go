package httptransport_test

// Tests for the HTTP backend. What every networked fabric shares is
// specified once in streamcore/fabrictest and run here over real HTTP
// streams; stream_test.go covers what this package adds — the long-lived
// full-duplex POST.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/streamcore"
	"repro/internal/transport/streamcore/fabrictest"
)

func newFabric(t *testing.T, opts httptransport.Options) *httptransport.Fabric {
	t.Helper()
	opts.Listen, opts.Seed = "127.0.0.1:0", 1
	f, err := httptransport.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

func newSuiteFabric(t *testing.T) fabrictest.Fabric { return newFabric(t, httptransport.Options{}) }

func TestFaultParity(t *testing.T)             { fabrictest.FaultParity(t, newSuiteFabric) }
func TestAdvertiseAndDiscovery(t *testing.T)   { fabrictest.DiscoveryAndAdvertise(t, newSuiteFabric) }
func TestRouteGossipIsTransitive(t *testing.T) { fabrictest.RouteGossipIsTransitive(t, newSuiteFabric) }
func TestAckElideEndToEnd(t *testing.T)        { fabrictest.AckElideEndToEnd(t, newSuiteFabric) }
func TestReservedNodeNameRejected(t *testing.T) {
	fabrictest.ReservedNodeNameRejected(t, newSuiteFabric)
}
func TestAckElideHeldFailureSurfacesOnNextCall(t *testing.T) {
	fabrictest.AckElideHeldFailureSurfacesOnNextCall(t, newSuiteFabric)
}
func TestStreamFaultParityMidSession(t *testing.T) {
	fabrictest.FaultParityMidSession(t, newSuiteFabric)
}
func TestStreamCloseDoesNotLeakGoroutines(t *testing.T) {
	fabrictest.CloseDoesNotLeakGoroutines(t, newSuiteFabric)
}
func TestUnknownVersionKillsSession(t *testing.T) {
	fabrictest.UnknownVersionKillsSession(t, newSuiteFabric,
		func(f fabrictest.Fabric, node string) (streamcore.Conn, error) {
			return f.(*httptransport.Fabric).DialForTest(node)
		})
}

// echoHandler returns the payload and method it was called with.
func echoHandler(method string, payload any) (any, error) {
	if req, ok := payload.(server.JoinRequest); ok {
		return server.JoinResponse{Accepted: true, SessionID: uint64(req.ClientID), Version: 7}, nil
	}
	if s, ok := payload.(string); ok {
		return "echo:" + method + ":" + s, nil
	}
	return payload, nil
}

// TestCallRoundTrip drives the three payload shapes the control plane uses
// through the loopback listener, and pins the frozen Options.Codec
// contract: "" and "bin" name the one wire format, anything else is
// refused.
func TestCallRoundTrip(t *testing.T) {
	f := newFabric(t, httptransport.Options{Codec: "bin"})
	f.Register("node-a", echoHandler)

	// Struct payload and struct response.
	resp, err := f.Call("tester", "node-a", "join", server.JoinRequest{TaskID: "t", ClientID: 42})
	if err != nil {
		t.Fatal(err)
	}
	jr, ok := resp.(server.JoinResponse)
	if !ok {
		t.Fatalf("response type %T, want server.JoinResponse", resp)
	}
	if !jr.Accepted || jr.SessionID != 42 || jr.Version != 7 {
		t.Fatalf("round trip mangled response: %+v", jr)
	}

	// String payload (register-aggregator / task-info style).
	resp, err = f.Call("tester", "node-a", "m", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "echo:m:hello" {
		t.Fatalf("string round trip = %v", resp)
	}

	// Nil payload (map-request style).
	resp, err = f.Call("tester", "node-a", "nilcall", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		t.Fatalf("nil payload round trip = %v, want nil", resp)
	}

	if f, err := httptransport.New(httptransport.Options{Listen: "127.0.0.1:0", Codec: "json"}); err == nil {
		f.Close()
		t.Fatal("a codec other than bin was accepted")
	}
}

func TestNestedAnyPayloadCrossesWire(t *testing.T) {
	// RouteRequest carries an interface-typed payload — the hardest message
	// for a wire format: the inner concrete type must survive.
	f := newFabric(t, httptransport.Options{})
	f.Register("sel", func(method string, payload any) (any, error) {
		rr := payload.(server.RouteRequest)
		chunk, ok := rr.Payload.(server.UploadChunk)
		if !ok {
			t.Errorf("inner payload type %T, want server.UploadChunk", rr.Payload)
			return nil, errors.New("bad inner type")
		}
		return server.UploadResponse{OK: chunk.Done, Reason: rr.Method}, nil
	})
	resp, err := f.Call("client", "sel", "route", server.RouteRequest{
		TaskID: "t", Method: "upload-chunk",
		Payload: server.UploadChunk{TaskID: "t", SessionID: 3, Data: []float32{1, 2}, Done: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ur := resp.(server.UploadResponse)
	if !ur.OK || ur.Reason != "upload-chunk" {
		t.Fatalf("nested round trip = %+v", ur)
	}
}

func TestAppErrorCrossesWire(t *testing.T) {
	f := newFabric(t, httptransport.Options{})
	f.Register("node-a", func(string, any) (any, error) {
		return nil, errors.New("task \"ghost\" not assigned here")
	})
	_, err := f.Call("tester", "node-a", "m", nil)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("app error lost: %v", err)
	}
	// App errors must NOT map onto transport sentinels.
	for _, sentinel := range []error{transport.ErrCrashed, transport.ErrDropped,
		transport.ErrPartitioned, transport.ErrUnknownNode} {
		if errors.Is(err, sentinel) {
			t.Fatalf("app error classified as %v", sentinel)
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	f := newFabric(t, httptransport.Options{})
	f.Register("a", echoHandler)
	f.SetLatency(30 * time.Millisecond)
	start := time.Now()
	if _, err := f.Call("x", "a", "m", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("call took %v, want >= 30ms injected latency", d)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	f := newFabric(t, httptransport.Options{})
	f.Register("a", echoHandler)
	before := f.Stats()
	if _, err := f.Call("x", "a", "m", "payload"); err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if after.Calls != before.Calls+1 || after.BytesSent <= before.BytesSent ||
		after.BytesReceived <= before.BytesReceived {
		t.Fatalf("stats did not advance: %+v -> %+v", before, after)
	}
}
