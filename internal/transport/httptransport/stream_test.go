package httptransport_test

// Tests for the HTTP carrier: one long-lived POST on /papaya/v2/stream
// carrying a pipelined sequence of length-prefixed frames in each
// direction.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/wire"
)

// TestStreamOpenFailsFastWhenPeerNeverResponds: a peer that accepts the
// stream-open POST but never sends response headers (a tier member dying
// between accept and response, as a fleet failover storm produces) must
// surface as a timely error, not a wedge. Regression: Do cannot return
// until the transport's write loop exits, the write loop blocks reading
// the session's body pipe, and context cancellation cannot interrupt a
// body Read — the open timer must close the pipe too.
func TestStreamOpenFailsFastWhenPeerNeverResponds(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stubURL := "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /papaya/v2/stream/victim", func(w http.ResponseWriter, r *http.Request) {
		<-release // mute: no headers, no body read
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	f := newFabric(t, httptransport.Options{CallTimeout: 300 * time.Millisecond})
	f.AddRoute("victim", stubURL)

	done := make(chan error, 1)
	go func() {
		sess, err := f.OpenSession("caller", "victim")
		if err == nil {
			sess.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("open against a mute peer unexpectedly succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OpenSession wedged on a mute peer (write loop never released)")
	}
}

// TestStreamSessionPipelinesCalls drives many calls through one explicit
// session and checks they all dispatch to the registered handler in order.
func TestStreamSessionPipelinesCalls(t *testing.T) {
	t.Run("bin", func(t *testing.T) {
		f := newFabric(t, httptransport.Options{})
		var got []string
		f.Register("echo", func(method string, payload any) (any, error) {
			got = append(got, method)
			return payload, nil
		})
		sess, err := f.OpenSession("caller", "echo")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for i := 0; i < 20; i++ {
			out, err := sess.Call(fmt.Sprintf("m%d", i), fmt.Sprintf("payload-%d", i))
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if out != fmt.Sprintf("payload-%d", i) {
				t.Fatalf("call %d echoed %v", i, out)
			}
		}
		if len(got) != 20 || got[0] != "m0" || got[19] != "m19" {
			t.Fatalf("handler saw %v", got)
		}
	})
}

// TestStreamCallModeUsesOneConnection: Fabric.Call is a pooled one-shot
// session — sequential calls toward one node reuse one stream POST, so a
// counting TCP relay in front of the callee accepts exactly one connection.
func TestStreamCallModeUsesOneConnection(t *testing.T) {
	f := newFabric(t, httptransport.Options{})
	var calls atomic.Int64
	f.Register("node", func(method string, payload any) (any, error) {
		calls.Add(1)
		return true, nil
	})
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	var accepted atomic.Int64
	go func() {
		for {
			in, err := relay.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			out, err := net.Dial("tcp", strings.TrimPrefix(f.BaseURL(), "http://"))
			if err != nil {
				in.Close()
				continue
			}
			go func() { _, _ = io.Copy(out, in); out.Close() }()
			go func() { _, _ = io.Copy(in, out); in.Close() }()
		}
	}()

	caller := newFabric(t, httptransport.Options{})
	caller.AddRoute("node", "http://"+relay.Addr().String())
	for i := 0; i < 10; i++ {
		if _, err := caller.Call("caller", "node", "ping", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if calls.Load() != 10 {
		t.Fatalf("handler saw %d calls", calls.Load())
	}
	if accepted.Load() != 1 {
		t.Fatalf("10 sequential calls opened %d connections, want 1", accepted.Load())
	}
}

// TestBinRejectedOnV1Route: the per-POST route generations are gone. A
// well-formed frame POSTed to where /v1 or /v2 RPC used to live is refused
// by the mux and never decoded or dispatched.
func TestBinRejectedOnV1Route(t *testing.T) {
	f := newFabric(t, httptransport.Options{})
	var calls atomic.Int64
	f.Register("agg", func(string, any) (any, error) {
		calls.Add(1)
		return true, nil
	})
	frame, err := wire.Binary{}.AppendRequest(nil, &wire.Request{
		From: "c", Method: "join", Payload: server.JoinRequest{TaskID: "t", ClientID: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/papaya/v1/rpc/agg", "/papaya/v2/rpc/agg", "/papaya/v1/nodes"} {
		resp, err := http.Post(f.BaseURL()+path, "application/x-papaya-bin", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s = HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("handler ran %d times for frames on dead routes", calls.Load())
	}
}

// TestStreamSessionSurvivesLargeFrames pushes a payload well past the
// bufio sizes through a session in both directions.
func TestStreamSessionSurvivesLargeFrames(t *testing.T) {
	f := newFabric(t, httptransport.Options{})
	f.Register("node", func(method string, payload any) (any, error) { return payload, nil })
	sess, err := f.OpenSession("caller", "node")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	big := make([]byte, 0, 1<<20)
	for i := 0; i < 1<<18; i++ {
		big = append(big, "wxyz"[i%4])
	}
	out, err := sess.Call("echo", string(big))
	if err != nil {
		t.Fatal(err)
	}
	if out.(string) != string(big) {
		t.Fatal("large frame corrupted in flight")
	}
}
