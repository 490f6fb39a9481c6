package compress_test

// The pooled DEFLATE stage of the flate and streamed codecs against fresh
// flate writers: a Reset writer must emit exactly what a new one does,
// frame after frame, a pooled reader must keep the inflate bound, and
// steady-state frame encode/decode must not rebuild the codec's tables.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
)

// freshDeflate is the reference: a new writer per frame.
func freshDeflate(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flateHeader is the frame header of a flate-codec frame declaring n
// elements.
func flateHeader(n int) []byte {
	return binary.AppendUvarint([]byte{'P', 'Z', compress.FrameVersion, 5, 1}, uint64(n))
}

func TestPooledDeflateMatchesFreshWriter(t *testing.T) {
	c, err := compress.ByName("flate")
	if err != nil {
		t.Fatal(err)
	}
	vecs := [][]float32{
		nil,
		testFloats(4),
		testFloats(4096), // a chunk's worth of deltas
		make([]float32, 1<<14),
		testFloats(300),
	}
	// Twice round, so later frames run on writers and readers a previous
	// frame left in the pool.
	for round := 0; round < 2; round++ {
		for i, v := range vecs {
			frame, err := compress.CompressFloats(c, v)
			if err != nil {
				t.Fatal(err)
			}
			hdr := flateHeader(len(v))
			if !bytes.HasPrefix(frame, hdr) {
				t.Fatalf("round %d frame %d: header %x, want %x", round, i, frame[:len(hdr)], hdr)
			}
			payload := frame[len(hdr):]
			if want := freshDeflate(t, floatBits(v)); !bytes.Equal(payload, want) {
				t.Fatalf("round %d frame %d: pooled deflate emitted %d bytes differing from a fresh writer's %d", round, i, len(payload), len(want))
			}
			back, err := compress.DecompressFloats(frame)
			if err != nil || !bytes.Equal(floatBits(back), floatBits(v)) {
				t.Fatalf("round %d frame %d: inflate = %d elements, %v", round, i, len(back), err)
			}
			// A stream inflating past the 4n+64 bytes its declared count
			// n allows is a bomb, and a pooled reader must still refuse
			// it before the inner decode sees it.
			if n := len(v) / 2; 4*len(v) > 4*n+64 {
				bomb := append(flateHeader(n), payload...)
				if _, err := compress.DecompressFloats(bomb); err == nil || !strings.Contains(err.Error(), "bound") {
					t.Fatalf("round %d frame %d: inflate bound not enforced by a pooled reader: %v", round, i, err)
				}
			}
		}
	}
	// A corrupt stream fails and leaves nothing broken behind in the pool.
	if _, err := compress.DecompressFloats(append(flateHeader(4), 0xff, 0xff, 0xff)); err == nil {
		t.Fatal("corrupt stream inflated")
	}
	want := []float32{1, 2, 3, float32(math.Pi)}
	frame, _ := compress.CompressFloats(c, want)
	if back, err := compress.DecompressFloats(frame); err != nil || !bytes.Equal(floatBits(back), floatBits(want)) {
		t.Fatalf("inflate after a corrupt stream = %v, %v", back, err)
	}
}

// TestDeflateFrameAllocs fences the per-frame cost of the codecs' DEFLATE
// stage on a 1 KiB chunk, encoding into a reused scratch buffer and
// decoding into a reused destination the way the upload path does. With a
// fresh writer and reader per frame the stage cost 21 allocations (1.2 MB,
// 0.5 ms on a 2-vCPU x86-64 host) to deflate and 9 to inflate; pooled, the
// remaining allocations are the inner codec's payload and the inflated
// bytes. The fences leave room for one more growth step but not for a
// fresh writer or reader.
func TestDeflateFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	src := testFloats(256) // 1 KiB
	dst := make([]float32, len(src))
	for _, name := range []string{"flate", "streamed"} {
		c, _ := compress.ByName(name)
		frame, err := compress.CompressFloats(c, src)
		if err != nil {
			t.Fatal(err)
		}
		scratch := make([]byte, 0, 4*len(src)+64)
		deflate := testing.AllocsPerRun(200, func() {
			if _, err := compress.AppendCompressedFloats(scratch[:0], c, src); err != nil {
				t.Fatal(err)
			}
		})
		inflate := testing.AllocsPerRun(200, func() {
			if err := compress.DecompressFloatsInto(dst, frame); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s, per 1 KiB chunk: deflate %.1f allocs, inflate %.1f allocs", name, deflate, inflate)
		if deflate > 4 || inflate > 6 {
			t.Fatalf("%s per-frame allocations: deflate %.1f (fence 4), inflate %.1f (fence 6)", name, deflate, inflate)
		}
	}
}
