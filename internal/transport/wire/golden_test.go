package wire_test

// The hot messages' payload bytes, pinned. testdata/golden_payloads.txt
// holds one line per case — its name and the payload in hex, from the tag
// byte on — as the encoder produced them; the test below requires the
// current encoder to reproduce every line byte for byte and the decoder to
// accept each one and re-encode it unchanged. A layout change therefore
// shows up here first, and must come with a wire.Version bump. Regenerate
// the file only for such a change:
//
//	go test ./internal/transport/wire -run TestHotPayloadsMatchGolden -update-golden

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_payloads.txt from the current encoder")

const goldenPath = "testdata/golden_payloads.txt"

type goldenCase struct {
	name    string
	payload any
}

// goldenCases lists every hot message in each shape its layout branches
// on: UploadChunk under all 32 flag combinations, the selector's route
// envelope around a chunk, a download and a task-info, and ReportResponse
// without SecAgg material.
func goldenCases() []goldenCase {
	nan := math.Float32frombits(0x7fc00001)
	cases := []goldenCase{
		{"nil", nil},
		{"string", "agg-0"},
		{"bool", true},
		{"checkin-request", server.CheckinRequest{ClientID: -77, Capabilities: []string{"lm", "gpu"}, TraceID: 1 << 40}},
		{"checkin-request/bare", server.CheckinRequest{ClientID: 5}},
		{"checkin-response", server.CheckinResponse{
			Accepted: true, TaskID: "t", Aggregator: "agg-0", SessionID: 300, Version: 9,
			TraceID: 12, RetryAfterMs: 0,
		}},
		{"checkin-response/rejected", server.CheckinResponse{Reason: "no task with demand", TraceID: 12, RetryAfterMs: 250}},
		{"join-request", server.JoinRequest{TaskID: "t", ClientID: 1 << 33, TraceID: 7}},
		{"join-response", server.JoinResponse{Accepted: true, SessionID: 300, Version: -1, RetryAfterMs: 40}},
		{"download-request", server.DownloadRequest{TaskID: "t", SessionID: 300}},
		{"download-response", server.DownloadResponse{Params: []float32{0, float32(math.Copysign(0, -1)), 1.5, nan}, Version: 9}},
		{"download-response/empty", server.DownloadResponse{}},
		{"report-request", server.ReportRequest{TaskID: "t", SessionID: 300, Compress: []string{"quantized", "none"}}},
		{"report-response", server.ReportResponse{
			OK: true, ChunkSize: 4096, CurrentVersion: 12, Compress: "quantized",
			DPClip: 1.5, DPLocalNoise: 0.25,
		}},
		{"report-response/rejected", server.ReportResponse{Reason: "unknown session"}},
		{"upload-response", server.UploadResponse{OK: true}},
		{"upload-response/rejected", server.UploadResponse{Reason: "staleness exceeded"}},
		{"fail-request", server.FailRequest{TaskID: "t", SessionID: 300}},
		{"task-info", server.TaskInfo{
			Version: 9, Updates: 31, Active: 2, Params: []float32{1, -2, 3},
			Mode: core.Sync, DPEnabled: true, DPEpsilon: 3.25, DPDelta: 1e-6, DPReleases: 7,
			DPBudget: 8, DPExhausted: true,
		}},
	}
	for flags := 0; flags < 32; flags++ {
		c := server.UploadChunk{TaskID: "t", SessionID: 300, Offset: 4096, NumExamples: 8, Done: flags&1 != 0}
		if flags&2 != 0 {
			c.Data = []float32{1.5, -2, nan}
		}
		if flags&4 != 0 {
			c.Masked = []uint32{7, 1 << 31}
		}
		if flags&8 != 0 {
			c.Packed = []byte{'P', 'Z', 1, 1, 1, 0}
		}
		if flags&16 != 0 {
			c.SecAggIndex, c.SecAggCompleting, c.SecAggEncSeed = 9, []byte{1, 2, 3}, []byte{4, 5}
		}
		cases = append(cases, goldenCase{fmt.Sprintf("upload-chunk/flags=%02x", flags), c})
	}
	for _, r := range routeEnvelopes() {
		rr := r.Payload.(server.RouteRequest)
		cases = append(cases, goldenCase{"route/" + rr.Method, rr})
	}
	return cases
}

// readGolden parses the corpus file into name -> payload, in file order.
func readGolden(t testing.TB) (names []string, payloads map[string][]byte) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payloads = make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		b, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatalf("%s: %s: %v", goldenPath, name, err)
		}
		names = append(names, name)
		payloads[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names, payloads
}

func TestHotPayloadsMatchGolden(t *testing.T) {
	cases := goldenCases()
	if *updateGolden {
		var out bytes.Buffer
		out.WriteString("# Hot-message payloads (tag byte on), one per line: name hex.\n")
		out.WriteString("# Generated by TestHotPayloadsMatchGolden -update-golden; see golden_test.go.\n")
		for _, c := range cases {
			p, err := wire.AppendPayloadBinary(nil, c.payload)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			fmt.Fprintf(&out, "%s %x\n", c.name, p)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, golden := readGolden(t)
	if len(names) != len(cases) {
		t.Errorf("%s has %d cases, the test defines %d", goldenPath, len(names), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: missing from %s", c.name, goldenPath)
			continue
		}
		got, err := wire.AppendPayloadBinary(nil, c.payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: payload changed:\n got %x\nwant %x", c.name, got, want)
			continue
		}
		// The decoder accepts the pinned bytes and gives back a value that
		// encodes to them again.
		v, err := wire.DecodePayloadBinary(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		again, err := wire.AppendPayloadBinary(nil, v)
		if err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: decode then encode gives %x (err %v), want %x", c.name, again, err, want)
		}
		releasePayload(v)
	}
}

// goldenFrames wraps each pinned payload in a request frame, for the
// fuzzer's seed corpus.
func goldenFrames(f *testing.F) [][]byte {
	head, err := wire.Binary{}.AppendRequest(nil, &wire.Request{From: "c", Method: "m"})
	if err != nil {
		f.Fatal(err)
	}
	head = head[:len(head)-1] // drop the nil payload's tag
	names, golden := readGolden(f)
	frames := make([][]byte, 0, len(names))
	for _, name := range names {
		frames = append(frames, append(append([]byte(nil), head...), golden[name]...))
	}
	return frames
}
