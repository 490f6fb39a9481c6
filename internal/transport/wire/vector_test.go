package wire

// The vector fields' bulk copy against an element-by-element reference:
// both paths (the one-copy path a little-endian host takes and the
// per-element path of a big-endian host) must produce and accept exactly
// the reference bytes, NaN payloads, signed zeros and infinities included.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// special holds the float32 bit patterns a value-converting copy could
// disturb: quiet and signalling NaNs with payloads, both zeros, both
// infinities, and the smallest denormal.
var special = []uint32{
	0x7fc00000, 0x7fc00001, 0xffa00001, 0x7f800001,
	0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x00000001,
}

func referenceVector(bits []uint32) []byte {
	ref := binary.AppendUvarint(nil, uint64(len(bits)))
	for _, b := range bits {
		ref = binary.LittleEndian.AppendUint32(ref, b)
	}
	return ref
}

// vectorPaths runs body once per encoding path this host can take.
func vectorPaths(t *testing.T, body func(t *testing.T)) {
	native := hostLittleEndian
	defer func() { hostLittleEndian = native }()
	paths := []bool{false}
	if native {
		paths = append(paths, true)
	}
	for _, le := range paths {
		hostLittleEndian = le
		t.Run(fmt.Sprintf("bulk=%v", le), body)
	}
}

func TestVectorFieldsMatchElementLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, len(special), 1024, 4099} {
		bits := make([]uint32, n)
		for i := range bits {
			bits[i] = r.Uint32()
		}
		copy(bits, special)
		floats := make([]float32, n)
		for i, b := range bits {
			floats[i] = math.Float32frombits(b)
		}
		ref := referenceVector(bits)
		vectorPaths(t, func(t *testing.T) {
			enc := Fields{buf: []byte{0xAA}}
			enc.Float32s(&floats)
			if got := enc.Appended(); !bytes.Equal(got[1:], ref) || got[0] != 0xAA {
				t.Fatalf("n=%d: Float32s appends bytes that differ from the reference", n)
			}
			enc = Fields{}
			enc.Uint32s(&bits)
			if got := enc.Appended(); !bytes.Equal(got, ref) {
				t.Fatalf("n=%d: Uint32s appends bytes that differ from the reference", n)
			}
			frame := append(append([]byte(nil), ref...), 0xEE)
			pooled := func(k int) []float32 { return make([]float32, k, k+5) }
			for _, lease := range []func(int) []float32{nil, pooled} {
				dec := DecodeFields(frame)
				dec.Lease(lease, nil)
				var got []float32
				dec.Float32s(&got)
				if rest, err := dec.Rest(); err != nil || !bytes.Equal(rest, []byte{0xEE}) || len(got) != n {
					t.Fatalf("n=%d: Float32s decodes %d elems, rest %x, %v", n, len(got), rest, err)
				}
				for i, v := range got {
					if math.Float32bits(v) != bits[i] {
						t.Fatalf("n=%d: element %d decoded as %#x, want %#x", n, i, math.Float32bits(v), bits[i])
					}
				}
			}
			dec := DecodeFields(frame)
			var gotU []uint32
			dec.Uint32s(&gotU)
			if rest, err := dec.Rest(); err != nil || !bytes.Equal(rest, []byte{0xEE}) || len(gotU) != n {
				t.Fatalf("n=%d: Uint32s decodes %d elems, rest %x, %v", n, len(gotU), rest, err)
			}
			for i, v := range gotU {
				if v != bits[i] {
					t.Fatalf("n=%d: word %d decoded as %#x, want %#x", n, i, v, bits[i])
				}
			}
			// Every length check stays: a vector one byte short is refused,
			// in each reading mode.
			if n > 0 {
				short := ref[:len(ref)-1]
				for _, f := range []Fields{DecodeFields(short), SkipFields(short)} {
					var got []float32
					f.Float32s(&got)
					if f.Done() == nil {
						t.Fatalf("n=%d: truncated float vector read", n)
					}
				}
				f := DecodeFields(short)
				f.Uint32s(&gotU)
				if f.Done() == nil {
					t.Fatalf("n=%d: truncated uint vector decoded", n)
				}
			}
		})
	}
}

// BenchmarkFloat32Vector times one vector field at a chunk's and at a
// model's size: `go test -run '^$' -bench Float32Vector ./internal/transport/wire`.
func BenchmarkFloat32Vector(b *testing.B) {
	for _, n := range []int{4096, 1 << 18} {
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = float32(i) * 0.001
		}
		enc := Fields{}
		enc.Float32s(&vec)
		frame := enc.Appended()
		b.Run(fmt.Sprintf("encode/%dKiB", 4*n>>10), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			buf := make([]byte, 0, len(frame))
			for i := 0; i < b.N; i++ {
				f := Fields{buf: buf[:0]}
				f.Float32s(&vec)
				buf = f.Appended()
			}
		})
		b.Run(fmt.Sprintf("decode/%dKiB", 4*n>>10), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			var out []float32
			for i := 0; i < b.N; i++ {
				f := DecodeFields(frame)
				if f.Float32s(&out); f.Done() != nil {
					b.Fatal(f.Done())
				}
			}
		})
	}
}
