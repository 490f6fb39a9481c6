package server_test

import (
	"crypto/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
)

// TestChunkedUpload forces a tiny chunk size so a single model update spans
// many chunks, exercising the reassembly path on both the plaintext and
// SecAgg uploads — and, per codec configuration, the negotiated
// compression path (raw, quantized, and quantized+flate frames must all
// reassemble and aggregate on every fabric). A SecAgg task negotiates raw
// whatever its spec prefers: masked values are uniform, so no codec
// shrinks them.
func TestChunkedUpload(t *testing.T) { forEachFabric(t, testChunkedUpload) }

func testChunkedUpload(t *testing.T, fx fabricFactory) {
	for _, tc := range []struct {
		useSecAgg bool
		codec     string
	}{
		{false, "none"}, {false, "quantized"}, {false, "streamed"},
		{true, "none"}, {true, "quantized"}, {true, "streamed"},
	} {
		useSecAgg, codec := tc.useSecAgg, tc.codec
		name := "plain"
		if useSecAgg {
			name = "secagg"
		}
		name += "/" + codec
		t.Run(name, func(t *testing.T) {
			net := fx.make(t, 5)
			coord := server.NewCoordinator("coordinator", net, testTimings(), 7, false)
			defer coord.Stop()
			agg := server.NewAggregator("agg", net, "coordinator", testTimings())
			defer agg.Stop()
			sel := newTestSelector("sel", net, "coordinator", testTimings())
			defer sel.Stop()
			if _, err := net.Call("test", "coordinator", "register-aggregator", "agg"); err != nil {
				t.Fatal(err)
			}

			model := nn.NewBilinear(16, 4) // 144 params
			spec := server.TaskSpec{
				ID:              "chunky",
				Mode:            core.Async,
				NumParams:       model.NumParams(),
				Concurrency:     4,
				AggregationGoal: 1,
				Capability:      "lm",
				InitParams:      model.InitParams(rng.New(1)),
				UploadChunkSize: 13, // 144 params -> 12 chunks
				Compress:        codec,
			}
			if useSecAgg {
				dep, err := secagg.NewDeployment(secagg.Params{
					VecLen: model.NumParams() + 1, Threshold: 1, Scale: 1 << 16,
				}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				spec.SecAgg = dep
			}
			if _, err := net.Call("test", "coordinator", "create-task", spec); err != nil {
				t.Fatal(err)
			}

			corpus := lmdata.NewCorpus(lmdata.Config{
				VocabSize: 16, NumDialects: 2, Seed: 3,
				SeqLenMin: 5, SeqLenMax: 8, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
			})
			store := client.NewExampleStore(0, 0)
			for _, seq := range corpus.ClientExamples(1, 0, 0.5, 6) {
				store.Add(seq, time.Now())
			}
			dev := &client.Runtime{
				ClientID:     1,
				Capabilities: []string{"lm"},
				Store:        store,
				Exec:         &client.SGDExecutor{Model: model, Config: nn.DefaultSGDConfig(), Rng: rng.New(2)},
				Net:          net,
				Selectors:    []string{"sel"},
				State:        client.DeviceState{Idle: true, Charging: true, Unmetered: true},
				Random:       rand.Reader,
			}
			res, err := dev.RunOnce(time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != client.Completed {
				t.Fatalf("outcome = %s (%s)", res.Outcome, res.Reason)
			}
			// The negotiation must land exactly where the spec pointed:
			// raw for "none" and for every SecAgg task, the named codec
			// otherwise.
			wantCodec := codec
			if codec == "none" || useSecAgg {
				wantCodec = ""
			}
			if res.Compress != wantCodec {
				t.Fatalf("negotiated codec %q, want %q", res.Compress, wantCodec)
			}
			if res.UploadRawBytes == 0 || res.UploadWireBytes == 0 {
				t.Fatalf("upload metering missing: raw=%d wire=%d", res.UploadRawBytes, res.UploadWireBytes)
			}
			// Compressed plaintext uploads must actually shrink; raw
			// uploads, masked ones included, move exactly their bytes.
			if wantCodec != "" && res.UploadWireBytes >= res.UploadRawBytes {
				t.Fatalf("codec %s shipped %d wire bytes for %d raw bytes", codec,
					res.UploadWireBytes, res.UploadRawBytes)
			}
			if wantCodec == "" && res.UploadWireBytes != res.UploadRawBytes {
				t.Fatalf("raw upload shipped %d wire bytes for %d raw bytes",
					res.UploadWireBytes, res.UploadRawBytes)
			}
			// The goal-1 task must have stepped once.
			info, err := net.Call("test", "agg", "task-info", "chunky")
			if err != nil {
				t.Fatal(err)
			}
			if v := info.(server.TaskInfo).Version; v != 1 {
				t.Fatalf("version = %d after one chunked upload", v)
			}
		})
	}
}

// TestChunkOutOfBoundsRejected guards the reassembly buffer.
func TestChunkOutOfBoundsRejected(t *testing.T) { forEachFabric(t, testChunkOutOfBoundsRejected) }

func testChunkOutOfBoundsRejected(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("oob", w.model, core.Async, 2, 1)
	w.createTask(spec)
	resp, _ := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	cr := resp.(server.CheckinResponse)
	ur, err := w.net.Call("test", agName(0), "upload-chunk", server.UploadChunk{
		TaskID: "oob", SessionID: cr.SessionID,
		Offset: w.model.NumParams() - 1, Data: []float32{1, 2, 3}, Done: true, NumExamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur.(server.UploadResponse).OK {
		t.Fatal("out-of-bounds chunk accepted")
	}
}

// TestPackedChunkValidatedBeforeDecode: a compressed chunk whose frame
// declares more elements than the task holds, or the wrong element kind,
// must be rejected up front — the aggregator validates the self-describing
// header against the task's dimensions before allocating a decode. A
// SecAgg task refuses every compressed chunk: its uploads travel raw.
func TestPackedChunkValidatedBeforeDecode(t *testing.T) { forEachFabric(t, testPackedChunkValidated) }

func testPackedChunkValidated(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("poob", w.model, core.Async, 2, 1)
	spec.Compress = "quantized"
	w.createTask(spec)
	resp, _ := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	cr := resp.(server.CheckinResponse)
	codec, err := compress.ByName("quantized")
	if err != nil {
		t.Fatal(err)
	}

	oversize, err := compress.CompressFloats(codec, make([]float32, w.model.NumParams()+7))
	if err != nil {
		t.Fatal(err)
	}
	ur, err := w.net.Call("test", agName(0), "upload-chunk", server.UploadChunk{
		TaskID: "poob", SessionID: cr.SessionID, Offset: 0, Packed: oversize, Done: true, NumExamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur.(server.UploadResponse).OK {
		t.Fatal("oversize packed chunk accepted")
	}

	// The header of a four-element quantized frame with its kind byte set
	// to 2, the retired uint32 kind.
	wrongKind, err := compress.CompressFloats(codec, make([]float32, 4))
	if err != nil {
		t.Fatal(err)
	}
	wrongKind[4] = 2
	ur, err = w.net.Call("test", agName(0), "upload-chunk", server.UploadChunk{
		TaskID: "poob", SessionID: cr.SessionID, Offset: 0, Packed: wrongKind, Done: true, NumExamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur.(server.UploadResponse).OK {
		t.Fatal("wrong-kind packed chunk accepted on a plaintext task")
	}

	sw := newWorld(t, fx, 1, 1)
	sspec := lmSpec("psec", sw.model, core.Async, 2, 1)
	sspec.Compress = "quantized"
	if sspec.SecAgg, err = secagg.NewDeployment(secagg.Params{
		VecLen: sw.model.NumParams() + 1, Threshold: 1, Scale: 1 << 16,
	}, []byte("tsa"), tee.DefaultCostModel(), rand.Reader); err != nil {
		t.Fatal(err)
	}
	sw.createTask(sspec)
	resp, _ = sw.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	scr := resp.(server.CheckinResponse)
	packed, err := compress.CompressFloats(codec, make([]float32, 4))
	if err != nil {
		t.Fatal(err)
	}
	ur, err = sw.net.Call("test", agName(0), "upload-chunk", server.UploadChunk{
		TaskID: "psec", SessionID: scr.SessionID, Offset: 0, Packed: packed, NumExamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ur.(server.UploadResponse); got.OK || !strings.Contains(got.Reason, "SecAgg") {
		t.Fatalf("packed chunk on a SecAgg task = %+v, want a refusal naming SecAgg", got)
	}
}

// TestIncompleteUploadRejected: a Done chunk without full coverage fails.
func TestIncompleteUploadRejected(t *testing.T) { forEachFabric(t, testIncompleteUploadRejected) }

func testIncompleteUploadRejected(t *testing.T, fx fabricFactory) {
	w := newWorld(t, fx, 1, 1)
	spec := lmSpec("short", w.model, core.Async, 2, 1)
	w.createTask(spec)
	resp, _ := w.net.Call("test", selName(0), "checkin", server.CheckinRequest{
		ClientID: 1, Capabilities: []string{"lm"},
	})
	cr := resp.(server.CheckinResponse)
	ur, err := w.net.Call("test", agName(0), "upload-chunk", server.UploadChunk{
		TaskID: "short", SessionID: cr.SessionID,
		Offset: 0, Data: []float32{1, 2, 3}, Done: true, NumExamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur.(server.UploadResponse).OK {
		t.Fatal("incomplete upload accepted")
	}
}
