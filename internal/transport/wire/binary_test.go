package wire_test

// Tests for the one frame format: the steady-state allocation contract on
// the two hottest messages (UploadChunk requests, DownloadResponse
// responses) — encode into a reused buffer allocates nothing, decode of an
// UploadChunk stays within 2 allocations (the *Request and the payload's
// interface box) once the vector pools are warm — the same fence on the
// control-plane frames, deterministic map encoding, and hostile-frame
// rejection. Timing lives in benchmark/replay.go (wire.encode_chunk_us and
// friends).

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/dh"
	"repro/internal/dp"
	"repro/internal/merklelog"
	"repro/internal/secagg"
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

// controlSpec is a heartbeat-sized task spec: no initial model, no DP or
// SecAgg block.
var controlSpec = server.TaskSpec{
	ID: "wt", Mode: core.Async, NumParams: 4, Concurrency: 8, AggregationGoal: 2, Capability: "lm",
}

// TestControlPlaneFrameAllocs fences the per-check-in and heartbeat frames
// (Section 6.2's client assignment, Appendix E.4's aggregator report): a
// round trip through a reused frame buffer costs at most 3 allocations —
// the *Request or *Response, the payload's interface box, and its one
// slice or map. An AggReport's map of 256-byte TaskReports also pays Go's
// own map allocations (header, group, and an out-of-line slot per entry),
// which the test measures and adds to that budget rather than hard-coding.
func TestControlPlaneFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	task := server.TaskReport{Spec: controlSpec, Seq: 4, ActiveClients: 2, Demand: 6, Version: 9, Updates: 31}
	var sink any
	reportMap := testing.AllocsPerRun(100, func() {
		m := make(map[string]server.TaskReport, 1)
		m["wt"] = task
		sink = m
	})
	_ = sink
	cases := []struct {
		name     string
		response bool
		payload  any
		budget   float64
	}{
		{"assign-client-request", false, server.AssignClientRequest{ClientID: 77, Capabilities: []string{"lm"}}, 3},
		{"assign-client-response", true, server.AssignClientResponse{Assigned: true, TaskID: "wt", Aggregator: "agg-0", Seq: 4}, 3},
		{"map-response", true, server.MapResponse{Assignments: map[string]server.Assignment{
			"wt": {TaskID: "wt", Aggregator: "agg-0", Seq: 4},
		}}, 3},
		{"agg-report", false, server.AggReport{Aggregator: "agg-0", Tasks: map[string]server.TaskReport{"wt": task}}, 2 + reportMap},
	}
	bin := wire.Binary{}
	for _, c := range cases {
		var buf []byte
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if c.response {
				if buf, err = bin.AppendResponse(buf[:0], &wire.Response{Payload: c.payload}); err == nil {
					_, err = bin.DecodeResponse(buf)
				}
			} else {
				if buf, err = bin.AppendRequest(buf[:0], &wire.Request{From: "sel-0", Method: "m", Payload: c.payload}); err == nil {
					_, err = bin.DecodeRequest(buf)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s round trip: %.1f allocations (budget %.1f)", c.name, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("%s round trip allocates %.1f times, want <= %.1f", c.name, allocs, c.budget)
		}
	}
}

// TestColdEncodingIsDeterministic: maps encode in sorted-key order, so the
// same report or map built in any insertion order is the same frame.
func TestColdEncodingIsDeterministic(t *testing.T) {
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = string(rune('a'+i)) + "-task"
	}
	frames := func(order []string) (report, amap []byte) {
		r := server.AggReport{Aggregator: "agg-0", Tasks: make(map[string]server.TaskReport)}
		m := server.MapResponse{Assignments: make(map[string]server.Assignment)}
		for _, k := range order {
			spec := controlSpec
			spec.ID = k
			r.Tasks[k] = server.TaskReport{Spec: spec, Seq: uint64(k[0]), Checkpoint: []float32{float32(k[0])}}
			m.Assignments[k] = server.Assignment{TaskID: k, Aggregator: "agg-" + k, Seq: uint64(k[0])}
		}
		var err error
		if report, err = wire.AppendPayloadBinary(nil, r); err != nil {
			t.Fatal(err)
		}
		if amap, err = wire.AppendPayloadBinary(nil, m); err != nil {
			t.Fatal(err)
		}
		return report, amap
	}
	wantReport, wantMap := frames(keys)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		order := slices.Clone(keys)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		report, amap := frames(order)
		if !bytes.Equal(report, wantReport) || !bytes.Equal(amap, wantMap) {
			t.Fatalf("insertion order %v changed the encoding", order)
		}
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
		{'P', 'B', 99, 1},           // future version
		{'P', 'B', wire.Version, 7}, // unknown frame kind
		{'P', 'B', wire.Version, 1, 0xff, 0xff, 0xff, 0xff, 0x7f},      // absurd string length
		append([]byte{'P', 'B', wire.Version, 1, 1, 'c', 1, 'm'}, 200), // unregistered message ID
	}
	// A frame whose vector declares far more elements than the body holds.
	lying := append([]byte{'P', 'B', wire.Version, 1, 1, 'c', 1, 'm', 24, 1, 'x', 1, 0, 0, 2 /* flags: data */}, 0xff, 0xff, 0xff, 0x7f)
	hostile = append(hostile, lying)
	for i, frame := range hostile {
		if _, err := bin.DecodeRequest(frame); err == nil {
			t.Fatalf("hostile frame %d decoded: %x", i, frame)
		}
	}
}

// TestBinaryRejectsHostileColdFrames: the control-plane decoders parse
// frames from unauthenticated peers too. Counts that outrun the frame,
// truncated optional blocks, non-canonical presence bytes and short hashes
// are all refused.
func TestBinaryRejectsHostileColdFrames(t *testing.T) {
	bin := wire.Binary{}
	encode := func(payload any) []byte {
		t.Helper()
		frame, err := bin.AppendRequest(nil, &wire.Request{From: "c", Method: "m", Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	mustReject := func(what string, frame []byte) {
		t.Helper()
		if _, err := bin.DecodeRequest(frame); err == nil {
			t.Fatalf("%s decoded: %x", what, frame)
		}
	}
	head := encode(nil)
	head = head[:len(head)-1]
	with := func(b ...byte) []byte { return append(slices.Clone(head), b...) }

	// Declared map and slice counts larger than the frame.
	mustReject("map-response counting 2^20 entries", with(36, 0x80, 0x80, 0x40))
	mustReject("agg-report counting 2^20 tasks", with(31, 1, 'a', 0x80, 0x80, 0x40))
	mustReject("agg-directive counting 65535 names", with(32, 0xff, 0xff, 0x03, 1, 'x'))
	mustReject("agent list counting 2 names, holding 1", with(37, 2, 1, 'x'))

	// Every proper prefix of a frame with every optional block present is
	// refused — truncated DP and SecAgg blocks, a cut checkpoint, a cut
	// bundle.
	spec := controlSpec
	spec.InitParams = []float32{1, 2, 3, 4}
	spec.SecAgg = &secagg.Deployment{Params: secagg.Params{VecLen: 5, Threshold: 2, Scale: 1 << 16}}
	spec.DP = &dp.Config{Clip: 1, NoiseMultiplier: 2, Delta: 1e-6, EpsilonBudget: 5, Local: true}
	hash := func(b byte) [32]byte { return [32]byte(bytes.Repeat([]byte{b}, 32)) }
	report := server.ReportResponse{OK: true, SecAggEnabled: true,
		SecAggBundle: &secagg.InitialBundle{
			DH:          dhInitial(),
			DHVerifyKey: []byte{5, 6},
			Quote:       quote(hash),
			LogRoot:     merklelog.Hash(hash(0xAB)),
			LogSize:     1,
			Inclusion:   []merklelog.Hash{merklelog.Hash(hash(0xCD))},
		},
		SecAggTrust: secagg.ClientTrust{Collateral: []byte{7}, LogRoot: merklelog.Hash(hash(0xAB)), LogSize: 1, Params: spec.SecAgg.Params},
	}
	for _, payload := range []any{
		spec,
		server.AggReport{Aggregator: "agg-0", Tasks: map[string]server.TaskReport{"wt": {Spec: spec, Checkpoint: []float32{4, 3}}}},
		server.AssignTaskRequest{Spec: spec, Seq: 5, Checkpoint: []float32{9, 8}, Version: 11},
		report,
	} {
		frame := encode(payload)
		if _, err := bin.DecodeRequest(frame); err != nil {
			t.Fatalf("%T: the whole frame does not decode: %v", payload, err)
		}
		for i := len(head); i < len(frame); i++ {
			mustReject(fmt.Sprintf("%T cut to %d of %d bytes", payload, i, len(frame)), frame[:i])
		}
	}

	// A presence byte other than 0 or 1: a DP-less spec ends in the DP
	// block's presence byte.
	plain := encode(controlSpec)
	plain[len(plain)-1] = 2
	mustReject("spec with DP presence byte 2", plain)

	// A short hash: the frame ends one byte into the bundle's log root.
	frame := encode(report)
	at := bytes.Index(frame, bytes.Repeat([]byte{0xAB}, 32))
	mustReject("report ending inside a hash", frame[:at+31])
}

func dhInitial() dh.InitialMessage {
	return dh.InitialMessage{Index: 3, PublicKey: []byte{1, 2, 3}, Signature: []byte{4}}
}

func quote(hash func(byte) [32]byte) attest.Quote {
	return attest.Quote{BinaryHash: hash(1), ParamsHash: hash(2), ReportData: hash(3), Signature: []byte{9}}
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
