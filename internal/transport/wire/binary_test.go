package wire_test

// Tests for the one frame format on the two hottest messages (UploadChunk
// requests, DownloadResponse responses): the steady-state allocation
// contract the pooling work exists for — encode into a reused buffer
// allocates nothing, decode of an UploadChunk stays within 2 allocations
// (the *Request and the payload's interface box) once the vector pools are
// warm — plus the gob-in-frame fallback and hostile-frame rejection. Timing
// lives in benchmark/replay.go (wire.encode_chunk_us and friends).

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/server"
	"repro/internal/transport/wire"
)

// benchChunk builds a loadtest-shaped upload chunk: one 1024-element raw
// float chunk, the hottest payload on the serving path.
func benchChunk(n int) server.UploadChunk {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i) * 0.001
	}
	return server.UploadChunk{
		TaskID:      "default",
		SessionID:   42,
		Offset:      0,
		Data:        data,
		Done:        true,
		NumExamples: 8,
	}
}

func benchDownload(n int) server.DownloadResponse {
	params := make([]float32, n)
	for i := range params {
		params[i] = float32(i) * 0.01
	}
	return server.DownloadResponse{Params: params, Version: 9}
}

func releasePayload(v any) {
	if lease, ok := v.(wire.BufferLease); ok {
		lease.ReleaseBinaryBuffers()
	}
}

// TestBinarySteadyStateAllocs pins the pooling contract: with a reused
// frame buffer, bin encodes the hot messages with zero allocations, and a
// bin UploadChunk decode costs at most 2 (the *Request and the payload's
// interface box) because the data vector is leased from vecpool and the
// identifier strings are interned.
func TestBinarySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	bin := wire.Binary{}
	req := &wire.Request{From: "client-7", Method: "upload-chunk", Payload: benchChunk(1024)}

	var buf []byte
	encAllocs := testing.AllocsPerRun(200, func() {
		out, err := bin.AppendRequest(buf[:0], req)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if encAllocs > 0 {
		t.Errorf("bin append-encode of UploadChunk allocates %.0f times per run, want 0", encAllocs)
	}

	frame, err := bin.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(200, func() {
		out, err := bin.DecodeRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		// The transport's release step: the leased vector goes back to the
		// pool, which is what keeps the next decode allocation-free.
		releasePayload(out.Payload)
	})
	if decAllocs > 2 {
		t.Errorf("bin decode of UploadChunk allocates %.0f times per run, want <= 2", decAllocs)
	}

	resp := &wire.Response{Payload: benchDownload(1024)}
	respAllocs := testing.AllocsPerRun(200, func() {
		out, err := bin.AppendResponse(buf[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if respAllocs > 0 {
		t.Errorf("bin append-encode of DownloadResponse allocates %.0f times per run, want 0", respAllocs)
	}
}

// TestBinaryColdMessagesRideGobFallback: a message without a hand-rolled
// form (AggDirective) still crosses, via the in-frame gob envelope, and an
// unregistered type still refuses to encode.
func TestBinaryColdMessagesRideGobFallback(t *testing.T) {
	bin := wire.Binary{}
	in := server.AggDirective{DropTasks: []string{"a", "b"}}
	frame, err := bin.AppendRequest(nil, &wire.Request{From: "agg-0", Method: "agg-report", Payload: in})
	if err != nil {
		t.Fatal(err)
	}
	req, err := bin.DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := req.Payload.(server.AggDirective)
	if !ok || len(out.DropTasks) != 2 || out.DropTasks[0] != "a" {
		t.Fatalf("gob-fallback payload mangled: %#v", req.Payload)
	}

	type notRegistered struct{ X int }
	if _, err := bin.AppendRequest(nil, &wire.Request{Payload: notRegistered{X: 1}}); err == nil {
		t.Fatal("unregistered type encoded through the bin fallback")
	}
}

// TestBinaryRejectsHostileFrames: truncated and length-lying frames must
// error without panicking or allocating the declared size.
func TestBinaryRejectsHostileFrames(t *testing.T) {
	bin := wire.Binary{}
	valid, err := bin.AppendRequest(nil, &wire.Request{From: "c", Method: "upload-chunk", Payload: benchChunk(64)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(valid); i++ {
		if _, err := bin.DecodeRequest(valid[:i]); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded", i, len(valid))
		}
	}

	hostile := [][]byte{
		nil,
		[]byte("PB"),
		{'P', 'B', 99, 1}, // future version
		{'P', 'B', 1, 7},  // unknown frame kind
		{'P', 'B', 1, 1, 0xff, 0xff, 0xff, 0xff, 0x7f},      // absurd string length
		append([]byte{'P', 'B', 1, 1, 1, 'c', 1, 'm'}, 200), // unregistered message ID
	}
	// A frame whose vector declares far more elements than the body holds.
	lying := append([]byte{'P', 'B', 1, 1, 1, 'c', 1, 'm', 24, 1, 'x', 1, 0, 0, 2 /* flags: data */}, 0xff, 0xff, 0xff, 0x7f)
	hostile = append(hostile, lying)
	for i, frame := range hostile {
		if _, err := bin.DecodeRequest(frame); err == nil {
			t.Fatalf("hostile frame %d decoded: %x", i, frame)
		}
	}
}

// TestBinaryNestedRouteStaysBinary: the selector route envelope around an
// UploadChunk — the actual client wire shape — decodes with the inner
// concrete type and its scalar fields intact, while the chunk's vector stays
// bytes: only a selector decodes a route envelope, and it relays the nested
// call without materialising it. Re-encoding the envelope gives back the
// frame byte for byte, and the call the selector sends on is byte-identical
// to the one the client's own chunk makes, decoding in full at the
// aggregator.
func TestBinaryNestedRouteStaysBinary(t *testing.T) {
	bin := wire.Binary{}
	sent := benchChunk(128)
	in := server.RouteRequest{TaskID: "default", Method: "upload-chunk", Payload: sent, TraceID: 9}
	frame, err := bin.AppendRequest(nil, &wire.Request{From: "client-1", Method: "route", Payload: in})
	if err != nil {
		t.Fatal(err)
	}
	req, err := bin.DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := req.Payload.(server.RouteRequest)
	if !ok {
		t.Fatalf("outer payload type %T", req.Payload)
	}
	chunk, ok := rr.Payload.(server.UploadChunk)
	if !ok {
		t.Fatalf("inner payload type %T", rr.Payload)
	}
	if rr.TraceID != 9 || chunk.TaskID != "default" || chunk.SessionID != 42 || !chunk.Done || chunk.NumExamples != 8 {
		t.Fatalf("inner chunk scalars mangled: %+v", chunk)
	}
	if chunk.Data != nil {
		t.Fatalf("the selector's decode materialised %d vector elements", len(chunk.Data))
	}
	again, err := bin.AppendRequest(nil, req)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("re-encoded envelope differs from its frame (err %v)", err)
	}

	relayed, err := bin.AppendRequest(nil, &wire.Request{From: "sel-0", Method: "upload-chunk", Payload: chunk})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bin.AppendRequest(nil, &wire.Request{From: "sel-0", Method: "upload-chunk", Payload: sent})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(relayed, direct) {
		t.Fatal("the relayed call is not byte-identical to the chunk's own encoding")
	}
	up, err := bin.DecodeRequest(relayed)
	if err != nil {
		t.Fatal(err)
	}
	if got := up.Payload.(server.UploadChunk); !slices.Equal(got.Data, sent.Data) || got.Offset != sent.Offset {
		t.Fatalf("aggregator-side decode of the relayed chunk mangled: %d elems", len(got.Data))
	}
	releasePayload(up.Payload)
	releasePayload(req.Payload)
}
