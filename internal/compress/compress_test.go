package compress_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/rng"
)

// testFloats builds a deterministic, SGD-delta-shaped vector: mostly small
// Gaussian values with a few outliers, the realistic input for the
// quantizer's per-frame scale.
func testFloats(n int) []float32 {
	r := rng.New(42)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.NormFloat64() * 0.01)
	}
	if n > 10 {
		out[3] = 0.9
		out[7] = -1.1
	}
	return out
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, name := range compress.Names() {
		t.Run(name, func(t *testing.T) {
			c, err := compress.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 1, 13, 144, 4096} {
				src := testFloats(n)
				frame, err := compress.CompressFloats(c, src)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				got, err := compress.DecompressFloats(frame)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if len(got) != n {
					t.Fatalf("n=%d: decoded %d elements", n, len(got))
				}
				checkFloatFidelity(t, name, src, got)
			}
		})
	}
}

// checkFloatFidelity asserts losslessness for byte-exact codecs and the
// quantization error bound (half a quantization step) for lossy ones.
func checkFloatFidelity(t *testing.T, name string, src, got []float32) {
	t.Helper()
	maxabs := 0.0
	for _, v := range src {
		if a := math.Abs(float64(v)); a > maxabs {
			maxabs = a
		}
	}
	var step float64
	switch name {
	case "none", "flate":
		step = 0 // lossless
	case "quantized", "streamed":
		step = maxabs / 127
	case "quantized16":
		step = maxabs / 32767
	default:
		t.Fatalf("unknown codec %q: add its fidelity bound here", name)
	}
	for i := range src {
		if step == 0 {
			if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
				t.Fatalf("%s: float[%d] = %g, want bit-exact %g", name, i, got[i], src[i])
			}
			continue
		}
		if err := math.Abs(float64(got[i]) - float64(src[i])); err > step*0.5000001 {
			t.Fatalf("%s: float[%d] error %g exceeds half-step %g", name, i, err, step/2)
		}
	}
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func floatBits(v []float32) []byte {
	out := make([]byte, 0, 4*len(v))
	for _, f := range v {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
	}
	return out
}

// TestQuantizedRoundTripDeterminism is the bit-stability regression test
// (the PR 1 determinism style applied to the wire): for a fixed input, the
// quantized frame bytes and the decompressed float bits must match golden
// FNV-1a hashes — the same values on every run, architecture, and Go
// version, because quantization uses only individually rounded IEEE 754
// operations. A platform where these hashes drift would silently break
// cross-fleet aggregation.
func TestQuantizedRoundTripDeterminism(t *testing.T) {
	const (
		goldenFrame   uint64 = 0xba06e839318188bd
		goldenDecoded uint64 = 0x98b799147729544d
	)
	c, _ := compress.ByName("quantized")
	src := testFloats(512)

	frame1, err := compress.CompressFloats(c, src)
	if err != nil {
		t.Fatal(err)
	}
	frame2, _ := compress.CompressFloats(c, src)
	if !bytes.Equal(frame1, frame2) {
		t.Fatal("two compressions of the same input produced different frames")
	}
	if h := hash64(frame1); h != goldenFrame {
		t.Fatalf("frame hash %#x, want golden %#x (quantized wire format drifted)", h, goldenFrame)
	}

	dec1, err := compress.DecompressFloats(frame1)
	if err != nil {
		t.Fatal(err)
	}
	dec2, _ := compress.DecompressFloats(frame1)
	if !bytes.Equal(floatBits(dec1), floatBits(dec2)) {
		t.Fatal("two decompressions of the same frame produced different float bits")
	}
	if h := hash64(floatBits(dec1)); h != goldenDecoded {
		t.Fatalf("decoded-bits hash %#x, want golden %#x (dequantization drifted)", h, goldenDecoded)
	}

	// A second full cycle over the decoded values must also be stable:
	// re-compressing already-quantized data and decompressing again cannot
	// keep drifting.
	frame3, err := compress.CompressFloats(c, dec1)
	if err != nil {
		t.Fatal(err)
	}
	dec3, err := compress.DecompressFloats(frame3)
	if err != nil {
		t.Fatal(err)
	}
	frame4, _ := compress.CompressFloats(c, dec3)
	if !bytes.Equal(frame3, frame4) {
		t.Fatal("re-quantization cycle is not stable")
	}

	// The streamed codec must decode to exactly the quantized codec's
	// output — flate is a lossless stage over the same inner payload.
	sc, _ := compress.ByName("streamed")
	sframe, err := compress.CompressFloats(sc, src)
	if err != nil {
		t.Fatal(err)
	}
	sdec, err := compress.DecompressFloats(sframe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(floatBits(sdec), floatBits(dec1)) {
		t.Fatal("streamed codec decoded different bits than its inner quantized codec")
	}
}

func TestNegotiate(t *testing.T) {
	all := compress.Names()
	cases := []struct {
		preferred string
		offered   []string
		want      string
	}{
		{"quantized", all, "quantized"},
		{"streamed", all, "streamed"},
		{"quantized", nil, ""},                     // /v1/ peer: no capability field
		{"quantized", []string{"none"}, ""},        // client opted out
		{"", all, ""},                              // server opted out
		{"none", all, ""},                          // explicit none
		{"quantized", []string{"quantized16"}, ""}, // no overlap with preference
	}
	for _, tc := range cases {
		if got := compress.Negotiate(tc.preferred, tc.offered); got != tc.want {
			t.Errorf("Negotiate(%q, %v) = %q, want %q", tc.preferred, tc.offered, got, tc.want)
		}
	}
}

// TestCorruptFramesFail: malformed frames — the receiver-side attack
// surface — must error, never panic or over-allocate.
func TestCorruptFramesFail(t *testing.T) {
	c, _ := compress.ByName("quantized")
	frame, err := compress.CompressFloats(c, testFloats(64))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), frame...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":  mutate(func(b []byte) []byte { b[2] = 99; return b }),
		"unknown id":   mutate(func(b []byte) []byte { b[3] = 200; return b }),
		"bad kind":     mutate(func(b []byte) []byte { b[4] = 9; return b }),
		"truncated":    frame[:len(frame)-3],
		"giant count":  mutate(func(b []byte) []byte { return append(b[:5], 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) }),
		"wrong kind":   mutate(func(b []byte) []byte { b[4] = 2; return b }), // the retired uint32 kind
		"scale is NaN": mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[6:], math.Float64bits(math.NaN())); return b }),
	}
	for name, b := range cases {
		if _, err := compress.DecompressFloats(b); err == nil {
			t.Errorf("%s: DecompressFloats accepted a corrupt frame", name)
		}
	}
}

func TestFrameInfo(t *testing.T) {
	c, _ := compress.ByName("streamed")
	frame, err := compress.CompressFloats(c, testFloats(17))
	if err != nil {
		t.Fatal(err)
	}
	name, n, err := compress.FrameInfo(frame)
	if err != nil {
		t.Fatal(err)
	}
	if name != "streamed" || n != 17 {
		t.Fatalf("FrameInfo = (%q, %d)", name, n)
	}
}

// TestNamesAndIDsFixed pins the codec table: clients offer Names() at
// report time, so its order is on the wire, and each ID is in every frame
// header.
func TestNamesAndIDsFixed(t *testing.T) {
	want := map[string]byte{"flate": 5, "none": 1, "quantized": 2, "quantized16": 3, "streamed": 4}
	names := compress.Names()
	if got := strings.Join(names, ","); got != "flate,none,quantized,quantized16,streamed" {
		t.Fatalf("Names() = %s", got)
	}
	for _, name := range names {
		c, err := compress.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name || c.ID() != want[name] {
			t.Fatalf("ByName(%q) = %q with ID %d, want ID %d", name, c.Name(), c.ID(), want[name])
		}
	}
	names[0] = "mutated"
	if compress.Names()[0] != "flate" {
		t.Fatal("Names returned the table's own storage")
	}
}

// TestRegistryConcurrentReads: Names and ByName run from every client
// goroutine concurrently (offer construction on the upload path); the
// codec table's read paths must be race-free. Run under -race.
func TestRegistryConcurrentReads(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := compress.Names(); len(got) == 0 {
					t.Error("Names returned an empty table")
					return
				}
				_, _ = compress.ByName("no-such-codec") // error path formats the name list
			}
		}()
	}
	wg.Wait()
}

func TestByNameUnknown(t *testing.T) {
	_, err := compress.ByName("brotli")
	if err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Fatalf("err = %v", err)
	}
}
