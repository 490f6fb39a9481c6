package compress_test

// The pooled DEFLATE stage against fresh flate writers and readers: a
// Reset writer must emit exactly what a new one does, frame after frame, a
// pooled reader must keep the inflate bound, and steady-state frame
// deflate/inflate must not rebuild the codec's tables.

import (
	"bytes"
	"compress/flate"
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

func TestPooledDeflateMatchesFreshWriter(t *testing.T) {
	frames := [][]byte{
		nil,
		[]byte("a short ack frame"),
		floatBits(testFloats(4096)), // a chunk frame's worth of deltas
		bytes.Repeat([]byte{0}, 1<<16),
		floatBits(testFloats(300)),
	}
	// Twice round, so later frames run on writers and readers a previous
	// frame left in the pool.
	for round := 0; round < 2; round++ {
		for i, frame := range frames {
			got, err := compress.DeflateBytes(frame)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshDeflate(t, frame); !bytes.Equal(got, want) {
				t.Fatalf("round %d frame %d: pooled deflate emitted %d bytes differing from a fresh writer's %d", round, i, len(got), len(want))
			}
			back, err := compress.InflateBytes(got, int64(len(frame)))
			if err != nil || !bytes.Equal(back, frame) {
				t.Fatalf("round %d frame %d: inflate = %d bytes, %v", round, i, len(back), err)
			}
			if len(frame) > 0 {
				if _, err := compress.InflateBytes(got, int64(len(frame)-1)); err == nil {
					t.Fatalf("round %d frame %d: inflate bound not enforced by a pooled reader", round, i)
				}
			}
			head, err := compress.InflateHead(got, 6)
			if err != nil || !bytes.HasPrefix(frame, head) || len(head) != min(6, len(frame)) {
				t.Fatalf("round %d frame %d: InflateHead = %x, %v", round, i, head, err)
			}
		}
	}
	// A corrupt stream fails and leaves nothing broken behind in the pool.
	if _, err := compress.InflateBytes([]byte{0xff, 0xff, 0xff}, 1<<10); err == nil {
		t.Fatal("corrupt stream inflated")
	}
	want := []byte("after a corrupt stream")
	packed, _ := compress.DeflateBytes(want)
	if back, err := compress.InflateBytes(packed, 1<<10); err != nil || !bytes.Equal(back, want) {
		t.Fatalf("inflate after a corrupt stream = %q, %v", back, err)
	}
}

// TestDeflateFrameAllocs fences the per-frame cost of the transport's
// DEFLATE stage on a 1 KiB frame. With a fresh writer and reader per frame
// it cost 21 allocations (1.2 MB, 0.5 ms on a 2-vCPU x86-64 host) to
// deflate and 9 to inflate. Pooled it measures 2 and 4, the output slices
// growing; the fences, 4 and 6, leave room for one more growth step but
// not for a fresh writer or reader.
func TestDeflateFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	frame := floatBits(testFloats(256)) // 1 KiB
	packed, err := compress.DeflateBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	deflate := testing.AllocsPerRun(200, func() {
		if _, err := compress.DeflateBytes(frame); err != nil {
			t.Fatal(err)
		}
	})
	inflate := testing.AllocsPerRun(200, func() {
		if _, err := compress.InflateBytes(packed, 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("per 1 KiB frame: deflate %.1f allocs, inflate %.1f allocs", deflate, inflate)
	if deflate > 4 || inflate > 6 {
		t.Fatalf("per-frame allocations: deflate %.1f (fence 4), inflate %.1f (fence 6)", deflate, inflate)
	}
}
