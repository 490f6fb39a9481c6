// Package vecf provides the small float32 vector/matrix kernel the model and
// aggregation code are built on. Model parameters, client updates, and
// aggregated buffers are all flat []float32 vectors; keeping the math here in
// one place lets the aggregator, optimizers, and networks share it.
package vecf

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Zero sets every element of x to 0.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Clone returns a copy of x.
func Clone(x []float32) []float32 {
	out := make([]float32, len(x))
	copy(out, x)
	return out
}

// Fill sets every element of x to v.
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// Add computes dst[i] += src[i]. It panics if lengths differ.
func Add(dst, src []float32) {
	checkLen(len(dst), len(src))
	for i, v := range src {
		dst[i] += v
	}
}

// Sub computes dst[i] -= src[i]. It panics if lengths differ.
func Sub(dst, src []float32) {
	checkLen(len(dst), len(src))
	for i, v := range src {
		dst[i] -= v
	}
}

// Scale computes x[i] *= a.
func Scale(x []float32, a float32) {
	for i := range x {
		x[i] *= a
	}
}

// AXPY computes dst[i] += a*src[i]. It panics if lengths differ.
//
// AXPY and Dot are the inner loops of the matrix kernels below, where
// training spends most of its time. They take four elements per iteration
// in the same order as one, so results are bit-identical. The wider body
// keeps their speed from hinging on where the linker places the loop: on
// an x86-64 Xeon the one-element loops ran up to 16% slower when the code
// before them moved by 32 bytes.
func AXPY(dst []float32, a float32, src []float32) {
	checkLen(len(dst), len(src))
	i := 0
	for ; i+4 <= len(src); i += 4 {
		d, v := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] += a * v[0]
		d[1] += a * v[1]
		d[2] += a * v[2]
		d[3] += a * v[3]
	}
	for ; i < len(src); i++ {
		dst[i] += a * src[i]
	}
}

// Dot returns the inner product of a and b, accumulated in float64 for
// stability, in index order. It panics if lengths differ.
func Dot(a, b []float32) float64 {
	checkLen(len(a), len(b))
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s += float64(x[0]) * float64(y[0])
		s += float64(x[1]) * float64(y[1])
		s += float64(x[2]) * float64(y[2])
		s += float64(x[3]) * float64(y[3])
	}
	for ; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element of x (0 for empty input).
func MaxAbs(x []float32) float64 {
	var m float64
	for _, v := range x {
		a := math.Abs(float64(v))
		if a > m {
			m = a
		}
	}
	return m
}

// ClipNorm rescales x in place so its Euclidean norm does not exceed c.
// It returns the norm before clipping.
func ClipNorm(x []float32, c float64) float64 {
	n := Norm2(x)
	if n > c && n > 0 {
		Scale(x, float32(c/n))
	}
	return n
}

// Diff computes dst[i] = a[i] - b[i]. It panics if lengths differ.
func Diff(dst, a, b []float32) {
	checkLen(len(dst), len(a))
	checkLen(len(a), len(b))
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// WeightedSumInto computes dst[i] += w*src[i] and returns w, as a convenience
// for weighted-aggregation call sites.
func WeightedSumInto(dst []float32, w float64, src []float32) float64 {
	AXPY(dst, float32(w), src)
	return w
}

// Softmax writes softmax(logits) into probs (which may alias logits) and
// returns the log of the partition function for use in cross-entropy:
// logZ = log(sum_i exp(logits_i)) computed stably.
func Softmax(probs, logits []float32) float64 {
	checkLen(len(probs), len(logits))
	maxv := float32(math.Inf(-1))
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - maxv))
		probs[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range probs {
		probs[i] *= inv
	}
	return math.Log(sum) + float64(maxv)
}

// LogSumExp returns log(sum_i exp(x_i)) computed stably.
func LogSumExp(x []float32) float64 {
	maxv := float32(math.Inf(-1))
	for _, v := range x {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range x {
		sum += math.Exp(float64(v - maxv))
	}
	return math.Log(sum) + float64(maxv)
}

// ArgMax returns the index of the largest element (first on ties), or -1 for
// an empty slice.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// MatVec computes y = W x where W is an r-by-c row-major matrix. It panics
// if dimensions do not line up.
func MatVec(y []float32, w []float32, r, c int, x []float32) {
	if len(w) != r*c || len(x) != c || len(y) != r {
		panic("vecf: MatVec dimension mismatch")
	}
	for i := 0; i < r; i++ {
		y[i] = float32(Dot(w[i*c:(i+1)*c], x))
	}
}

// MatTVec computes y = W^T x where W is an r-by-c row-major matrix, i.e.
// y[j] = sum_i W[i][j]*x[i]. It panics if dimensions do not line up.
func MatTVec(y []float32, w []float32, r, c int, x []float32) {
	if len(w) != r*c || len(x) != r || len(y) != c {
		panic("vecf: MatTVec dimension mismatch")
	}
	Zero(y)
	for i := 0; i < r; i++ {
		row := w[i*c : (i+1)*c]
		xi := x[i]
		if xi == 0 {
			continue
		}
		AXPY(y, xi, row)
	}
}

// OuterAccum computes W[i][j] += a * x[i]*y[j] for the r-by-c row-major W.
func OuterAccum(w []float32, r, c int, a float32, x, y []float32) {
	if len(w) != r*c || len(x) != r || len(y) != c {
		panic("vecf: OuterAccum dimension mismatch")
	}
	for i := 0; i < r; i++ {
		row := w[i*c : (i+1)*c]
		ax := a * x[i]
		if ax == 0 {
			continue
		}
		AXPY(row, ax, y)
	}
}

// Tanh applies tanh element-wise in place.
func Tanh(x []float32) {
	for i, v := range x {
		x[i] = float32(math.Tanh(float64(v)))
	}
}

// Sigmoid applies the logistic function element-wise in place.
func Sigmoid(x []float32) {
	for i, v := range x {
		x[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// AllFinite reports whether every element is a finite number. A float32 is
// NaN or ±Inf exactly when its exponent field is all ones, which is exactly
// when (bits & 0x7f800000) + 0x00800000 carries into bit 31. The loop runs
// that test on two elements per 64-bit word (neither lane's sum can carry
// into the other) and ORs the sums together, so it never branches on the
// data: this check runs over every plaintext upload the aggregator accepts.
func AllFinite(x []float32) bool {
	const (
		exp   = 0x7f800000_7f800000 // the exponent field of both lanes
		one   = 0x00800000_00800000 // the exponent's lowest bit, both lanes
		carry = 0x80000000_80000000 // where an all-ones exponent carries to
	)
	var acc uint64
	if len(x) > 0 {
		// The byte view keeps each element's bits intact in its lane on
		// either byte order, and has no alignment requirement.
		b := unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), 4*len(x))
		ne := binary.NativeEndian
		for ; len(b) >= 8; b = b[8:] {
			acc |= ne.Uint64(b)&exp + one
		}
		if len(b) == 4 {
			acc |= uint64(ne.Uint32(b))&exp + one
		}
	}
	return acc&carry == 0
}

func checkLen(a, b int) {
	if a != b {
		panic("vecf: length mismatch")
	}
}
