// Linear quantization for the plaintext upload path. It follows the
// internal/fixedpoint recipe (Appendix D): scale, round to the nearest
// integer, clamp to the representable range — but with a per-frame scale
// derived from the frame's own max magnitude instead of a fleet-wide
// constant, since a model delta's range varies per client and per round.
//
// Determinism contract (regression-tested): quantization uses only
// individually rounded IEEE 754 float64 operations (max, divide, multiply,
// math.Round), never fused or reassociated compound expressions, so a
// compress/decompress cycle produces identical bits on every run and
// architecture. This matters because quantized deltas feed the aggregation
// pipeline, which is bit-for-bit reproducible.

package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Quantized is the int8 linear-quantization codec, the default compression
// lever: model deltas ship at 1 byte per element plus an 8-byte per-frame
// scale (~4x smaller than raw float32, more after the streamed stage).
type Quantized struct{}

// Name implements Codec.
func (Quantized) Name() string { return "quantized" }

// ID implements Codec.
func (Quantized) ID() byte { return 2 }

// AppendFloats implements Codec with 8-bit quantization.
func (Quantized) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	return appendQuantized(dst, src, 8)
}

// DecodeFloatsInto implements Codec.
func (Quantized) DecodeFloatsInto(dst []float32, payload []byte) error {
	return decodeQuantizedInto(dst, payload, 8)
}

// Quantized16 is the int16 variant for tasks that need more fidelity than
// 8 bits: 2 bytes per element (~2x smaller than raw), quantization error
// bounded by maxabs/32767 per element.
type Quantized16 struct{}

// Name implements Codec.
func (Quantized16) Name() string { return "quantized16" }

// ID implements Codec.
func (Quantized16) ID() byte { return 3 }

// AppendFloats implements Codec with 16-bit quantization.
func (Quantized16) AppendFloats(dst []byte, src []float32) ([]byte, error) {
	return appendQuantized(dst, src, 16)
}

// DecodeFloatsInto implements Codec.
func (Quantized16) DecodeFloatsInto(dst []float32, payload []byte) error {
	return decodeQuantizedInto(dst, payload, 16)
}

// --- float quantization ---

// appendQuantized writes [8-byte float64 inverse scale][n little-endian
// intB values]. The inverse scale (maxabs/qmax) is stored rather than the
// forward scale so decoding is a single exactly-rounded multiply.
func appendQuantized(dst []byte, src []float32, bits int) ([]byte, error) {
	qmax := float64(int64(1)<<(bits-1)) - 1 // 127 or 32767
	maxabs := 0.0
	for _, v := range src {
		a := math.Abs(float64(v))
		// Non-finite values cannot set the scale; they clamp at encode
		// time instead (NaN to 0, infinities to the range edge).
		if a > maxabs && !math.IsInf(a, 1) {
			maxabs = a
		}
	}
	var inv float64
	if maxabs > 0 {
		inv = maxabs / qmax
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(inv))
	var scale float64
	if inv > 0 {
		scale = qmax / maxabs
	}
	for _, v := range src {
		f := float64(v)
		var q int64
		switch {
		case math.IsNaN(f):
			q = 0
		case f > maxabs:
			q = int64(qmax)
		case f < -maxabs:
			q = -int64(qmax)
		default:
			q = int64(math.Round(f * scale))
		}
		if bits == 8 {
			dst = append(dst, byte(int8(q)))
		} else {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(int16(q)))
		}
	}
	return dst, nil
}

func decodeQuantizedInto(dst []float32, payload []byte, bits int) error {
	n := len(dst)
	width := bits / 8
	if len(payload) != 8+n*width {
		return fmt.Errorf("compress: quantized payload is %d bytes, want %d for %d elements",
			len(payload), 8+n*width, n)
	}
	inv := math.Float64frombits(binary.LittleEndian.Uint64(payload))
	if math.IsNaN(inv) || math.IsInf(inv, 0) || inv < 0 {
		return fmt.Errorf("compress: invalid quantization scale %g", inv)
	}
	body := payload[8:]
	for i := range dst {
		var q int64
		if bits == 8 {
			q = int64(int8(body[i]))
		} else {
			q = int64(int16(binary.LittleEndian.Uint16(body[i*2:])))
		}
		dst[i] = float32(float64(q) * inv)
	}
	return nil
}

// Little-endian packing shared by None and flate's inner layer.

func appendFloatsLE(dst []byte, src []float32) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

func decodeFloatsLEInto(dst []float32, payload []byte) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("compress: payload is %d bytes, want %d for %d float32s", len(payload), 4*len(dst), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:]))
	}
	return nil
}
