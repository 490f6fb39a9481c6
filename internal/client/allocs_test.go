package client

// Allocation guard for the client's upload hot path. PR 8's observability
// plane regressed allocs_per_upload (218.6 -> 248.1 per loadtest upload)
// through per-call fmt.Sprintf node names and a per-call span-recording
// closure; the fixes (the cached Runtime.name, the hoisted route body) are
// fenced here so the per-chunk client-side cost cannot silently creep
// again. The fabric below dispatches handler calls inline with no
// goroutines or copies, so the measurement isolates exactly the code this
// package puts on the chunk path: request building, routing, and span
// recording.

import (
	"testing"

	"repro/internal/server"
	"repro/internal/transport"
)

// inlineFabric dispatches Call straight into the registered handler on the
// caller's goroutine — the cheapest possible transport, so AllocsPerRun
// sees only the client package's own per-call allocations plus interface
// boxing intrinsic to the Fabric API.
type inlineFabric struct{ handlers map[string]transport.Handler }

func newInlineFabric() *inlineFabric {
	return &inlineFabric{handlers: make(map[string]transport.Handler)}
}

func (f *inlineFabric) Call(from, to, method string, payload any) (any, error) {
	return f.handlers[to](method, payload)
}
func (f *inlineFabric) Register(name string, h transport.Handler) { f.handlers[name] = h }
func (f *inlineFabric) Unregister(name string)                    { delete(f.handlers, name) }

// uploadOK is pre-boxed so the stub's return adds no per-call allocation.
var uploadOK any = server.UploadResponse{OK: true}

// TestUploadChunkAllocsGuard pins the client-side allocation budget of one
// routed upload chunk. The ceiling leaves room for the unavoidable boxing
// (RouteRequest and the chunk payload into `any`) but not for a returning
// per-call Sprintf or closure — either of those pushes past it immediately.
func TestUploadChunkAllocsGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	net := newInlineFabric()
	net.Register("sel", func(method string, payload any) (any, error) {
		if method == "checkin" {
			return server.CheckinResponse{Accepted: true, TaskID: "t", Aggregator: "agg", SessionID: 1}, nil
		}
		return uploadOK, nil
	})
	r := &Runtime{ClientID: 7, Net: net, Selectors: []string{"sel"}}
	p, checkin, err := r.checkin()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	p.sessionID = checkin.SessionID

	chunk := server.UploadChunk{
		TaskID: checkin.TaskID, SessionID: checkin.SessionID,
		Data: make([]float32, 64), NumExamples: 1,
	}
	allocs := testing.AllocsPerRun(200, func() {
		if res, err := p.sendChunk(nil, checkin.TaskID, chunk); res != nil || err != nil {
			t.Fatalf("sendChunk: res=%v err=%v", res, err)
		}
	})
	// Measured at 2 allocs/chunk (the two interface boxings); 6 is the
	// creep fence, far below the one-Sprintf-per-call regime this guards
	// against.
	t.Logf("client-side upload chunk path: %.1f allocs/op", allocs)
	if allocs > 6 {
		t.Fatalf("client-side upload chunk path allocates %.1f/op, budget 6", allocs)
	}

	// The cached node name itself must be allocation-free after first use.
	if n := testing.AllocsPerRun(100, func() { _ = r.name() }); n != 0 {
		t.Fatalf("Runtime.name allocates %.1f/op after caching, want 0", n)
	}
}
