package wire_test

// Fuzz coverage for the binary decoder: frames arrive from unauthenticated
// network peers, so truncated, length-lying, and bit-flipped inputs must
// produce errors, never panics, unbounded allocations, or pool corruption.
// The harness mirrors the transport's lifecycle, including the
// buffer-lease release, so the fuzzer also exercises the pool discipline.

import (
	"testing"

	"repro/internal/server"
	"repro/internal/transport/wire"
)

func FuzzBinaryDecode(f *testing.F) {
	bin := wire.Binary{}

	// Seed with real frames of every hot shape so mutation starts from
	// deep in the format, plus a few deliberately broken ones.
	seedReqs := []*wire.Request{
		{From: "client-1", Method: "upload-chunk", Payload: benchChunk(32)},
		{From: "client-1", Method: "route", Payload: server.RouteRequest{
			TaskID: "t", Method: "upload-chunk", Payload: benchChunk(8),
		}},
		{From: "sel-0", Method: "checkin", Payload: server.CheckinRequest{
			ClientID: 7, Capabilities: []string{"lm"},
		}},
		{From: "c", Method: "report", Payload: server.ReportRequest{
			TaskID: "t", SessionID: 3, Compress: []string{"quantized", "none"},
		}},
		{From: "c", Method: "m", Payload: "a-string"},
		{From: "c", Method: "m", Payload: nil},
		{From: "agg-0", Method: "agg-report", Payload: server.AggDirective{DropTasks: []string{"x"}}},
	}
	for _, r := range seedReqs {
		frame, err := bin.AppendRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	respFrame, err := bin.AppendResponse(nil, &wire.Response{Payload: benchDownload(16)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(respFrame)
	f.Add([]byte{'P', 'B', wire.Version, 1})
	f.Add([]byte{'P', 'B', wire.Version, 1, 0, 0, 24, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// The frames a relaying selector decodes and forwards: route envelopes
	// around every nested shape (a chunk with each vector and byte field, a
	// download, a task-info), and the answers it passes back undecoded.
	for _, r := range routeEnvelopes() {
		frame, err := bin.AppendRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, payload := range []any{benchDownload(64), server.TaskInfo{Version: 3, Params: []float32{1, 2}}} {
		frame, err := bin.AppendResponse(nil, &wire.Response{Payload: payload})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// The golden corpus (golden_test.go), after the seeds above so their
	// seed numbers keep naming the same frames.
	for _, frame := range goldenFrames(f) {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		if req, err := bin.DecodeRequest(frame); err == nil {
			// Round-trip property: whatever decoded must re-encode.
			if _, err := bin.AppendRequest(nil, req); err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			// Relay property: a chunk the selector accepts inside a route
			// envelope is one the aggregator accepts once forwarded.
			if rr, ok := req.Payload.(server.RouteRequest); ok {
				if chunk, ok := rr.Payload.(server.UploadChunk); ok {
					fwd, err := bin.AppendRequest(nil, &wire.Request{From: "sel-0", Method: rr.Method, Payload: chunk})
					if err != nil {
						t.Fatalf("relayed chunk does not encode: %v", err)
					}
					up, err := bin.DecodeRequest(fwd)
					if err != nil {
						t.Fatalf("relayed chunk the selector accepted fails at the aggregator: %v", err)
					}
					releasePayload(up.Payload)
				}
			}
			releasePayload(req.Payload)
		}
		if resp, err := bin.DecodeResponse(frame); err == nil {
			if _, err := bin.AppendResponse(nil, resp); err != nil {
				t.Fatalf("decoded response does not re-encode: %v", err)
			}
		}
	})
}

// routeEnvelopes are client route calls around every payload shape a
// selector relays.
func routeEnvelopes() []*wire.Request {
	chunk := benchChunk(8)
	chunk.Data = nil
	chunk.Masked = []uint32{1, 2, 3}
	chunk.Packed = []byte{'P', 'Z', 1, 1, 1, 0}
	chunk.SecAggIndex, chunk.SecAggCompleting, chunk.SecAggEncSeed = 4, []byte{5, 6}, []byte{7}
	route := func(method string, payload any) *wire.Request {
		return &wire.Request{From: "client-1", Method: "route", Payload: server.RouteRequest{
			TaskID: "t", Method: method, Payload: payload, TraceID: 11,
		}}
	}
	return []*wire.Request{
		route("upload-chunk", chunk),
		route("download", server.DownloadRequest{TaskID: "t", SessionID: 3}),
		route("task-info", "t"),
	}
}
