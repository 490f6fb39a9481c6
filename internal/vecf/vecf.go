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

// Zero sets every element of x to +0.
func Zero(x []float32) { clear(x) }

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
// AXPY and Dot are the inner loops of the 1-wide matrix kernels below.
// Training's matrix work runs on the 4-wide kernels, which call them only
// for a matrix's odd last row or a row with a skipped term. They take
// four elements per iteration in the same order as one, so results are
// bit-identical. The wider body keeps their speed from hinging
// on where the linker places the loop: on an x86-64 Xeon the one-element
// loops ran up to 16% slower when the code before them moved by 32 bytes.
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

// MatVec4 computes y[k] = W x[k] for four vectors at once, where W is an
// r-by-c row-major matrix. Each y[k] is bit-identical to MatVec(y[k], w,
// r, c, x[k]): every element is one float64 dot product summed in column
// order, from the same products, and rounded to float32 once. A row of W
// is loaded once for all four vectors. On a CPU with AVX2 the rows run
// four at a time in assembly, one float64 lane per vector, and the last
// r%4 rows on the Go body. It panics if dimensions do not line up.
func MatVec4(y [4][]float32, w []float32, r, c int, x [4][]float32) {
	if len(w) != r*c {
		panic("vecf: MatVec4 dimension mismatch")
	}
	for k := range x {
		if len(x[k]) != c || len(y[k]) != r {
			panic("vecf: MatVec4 dimension mismatch")
		}
	}
	i := 0
	if useAVX2 {
		i = r &^ 3
		matVec4AVX2(&y, w, i, c, &x)
	}
	matVec4Go(y, w, i, r, c, x)
}

// matVec4Go is MatVec4 over rows i..r-1 in Go. The four vectors' sums,
// over two rows at a time, are eight independent add chains, where Dot
// runs one.
func matVec4Go(y [4][]float32, w []float32, i, r, c int, x [4][]float32) {
	for ; i+2 <= r; i += 2 {
		wa := w[i*c : (i+1)*c]
		wb := w[(i+1)*c : (i+2)*c][:len(wa)]
		x0, x1, x2, x3 := x[0][:len(wa)], x[1][:len(wa)], x[2][:len(wa)], x[3][:len(wa)]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for j, v := range wa {
			ua, ub := float64(v), float64(wb[j])
			h := float64(x0[j])
			a0 += ua * h
			b0 += ub * h
			h = float64(x1[j])
			a1 += ua * h
			b1 += ub * h
			h = float64(x2[j])
			a2 += ua * h
			b2 += ub * h
			h = float64(x3[j])
			a3 += ua * h
			b3 += ub * h
		}
		y[0][i], y[1][i], y[2][i], y[3][i] = float32(a0), float32(a1), float32(a2), float32(a3)
		y[0][i+1], y[1][i+1], y[2][i+1], y[3][i+1] = float32(b0), float32(b1), float32(b2), float32(b3)
	}
	if i < r {
		row := w[i*c : (i+1)*c]
		for k := range y {
			y[k][i] = float32(Dot(row, x[k]))
		}
	}
}

// OuterAccumMatTVec4 runs, for k = 0..3, OuterAccum(g, r, c, a, x[k],
// y[k]) and MatTVec(z[k], w, r, c, x[k]) in one pass over the rows of the
// r-by-c row-major matrices g and w, and the results are bit-identical to
// those eight calls: an element of g adds its four terms in k order, an
// element of z[k] adds its terms in row order, and a term is skipped
// exactly where OuterAccum (a*x[k][i] == 0) or MatTVec (x[k][i] == 0)
// skips it. A row where no term is skipped is fused: it updates g and all
// four z[k] in one loop that loads the rows of g and w once (on a CPU
// with AVX2, in assembly, eight columns per instruction). A row with a
// skipped term runs on the 1-wide kernels. g must not overlap w or any
// z[k]. It panics if dimensions do not line up.
func OuterAccumMatTVec4(g, w []float32, r, c int, a float32, x, y, z [4][]float32) {
	if len(g) != r*c || len(w) != r*c {
		panic("vecf: OuterAccumMatTVec4 dimension mismatch")
	}
	for k := range x {
		if len(x[k]) != r || len(y[k]) != c || len(z[k]) != c {
			panic("vecf: OuterAccumMatTVec4 dimension mismatch")
		}
	}
	if !useAVX2 {
		outerAccumMatTVec4Go(g, w, r, c, a, x, y, z)
		return
	}
	for k := range z {
		clear(z[k])
	}
	for i := 0; i < r; i++ {
		if i = outerAccumMatTVec4AVX2(g, w, i, r, c, a, &x, &y, &z); i < r {
			outerAccumRow1(g, w, i, c, a, x, y, z)
		}
	}
}

// outerAccumMatTVec4Go is OuterAccumMatTVec4 in Go.
func outerAccumMatTVec4Go(g, w []float32, r, c int, a float32, x, y, z [4][]float32) {
	for k := range z {
		clear(z[k])
	}
	for i := 0; i < r; i++ {
		gr := g[i*c : (i+1)*c]
		wr := w[i*c : (i+1)*c][:len(gr)]
		c0, c1, c2, c3 := x[0][i], x[1][i], x[2][i], x[3][i]
		a0, a1, a2, a3 := a*c0, a*c1, a*c2, a*c3
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 || c0 == 0 || c1 == 0 || c2 == 0 || c3 == 0 {
			outerAccumRow1(g, w, i, c, a, x, y, z)
			continue
		}
		y0, y1, y2, y3 := y[0][:len(gr)], y[1][:len(gr)], y[2][:len(gr)], y[3][:len(gr)]
		z0, z1, z2, z3 := z[0][:len(gr)], z[1][:len(gr)], z[2][:len(gr)], z[3][:len(gr)]
		for j, u := range wr {
			s := gr[j]
			s += a0 * y0[j]
			s += a1 * y1[j]
			s += a2 * y2[j]
			s += a3 * y3[j]
			gr[j] = s
			z0[j] += c0 * u
			z1[j] += c1 * u
			z2[j] += c2 * u
			z3[j] += c3 * u
		}
	}
}

// outerAccumRow1 runs row i of OuterAccumMatTVec4 on the 1-wide kernels,
// skipping each term OuterAccum or MatTVec would skip.
func outerAccumRow1(g, w []float32, i, c int, a float32, x, y, z [4][]float32) {
	gr, wr := g[i*c:(i+1)*c], w[i*c:(i+1)*c]
	for k := range x {
		if ak := a * x[k][i]; ak != 0 {
			AXPY(gr, ak, y[k])
		}
		if ck := x[k][i]; ck != 0 {
			AXPY(z[k], ck, wr)
		}
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
