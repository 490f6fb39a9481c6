package vecf

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestZeroAndFill(t *testing.T) {
	x := []float32{1, 2, 3}
	Zero(x)
	for _, v := range x {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
	Fill(x, 2.5)
	for _, v := range x {
		if v != 2.5 {
			t.Fatal("Fill failed")
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	x := []float32{1, 2}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	x := []float32{1, 2, 3}
	Add(x, []float32{1, 1, 1})
	if x[0] != 2 || x[2] != 4 {
		t.Fatalf("Add: %v", x)
	}
	Sub(x, []float32{2, 2, 2})
	if x[0] != 0 || x[2] != 2 {
		t.Fatalf("Sub: %v", x)
	}
	Scale(x, 3)
	if x[1] != 3 {
		t.Fatalf("Scale: %v", x)
	}
	AXPY(x, 2, []float32{1, 1, 1})
	if x[0] != 2 || x[1] != 5 {
		t.Fatalf("AXPY: %v", x)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { Add([]float32{1}, []float32{1, 2}) },
		func() { Sub([]float32{1}, []float32{1, 2}) },
		func() { AXPY([]float32{1}, 1, []float32{1, 2}) },
		func() { Dot([]float32{1}, []float32{1, 2}) },
		func() { Diff([]float32{1}, []float32{1}, []float32{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDotAndNorm(t *testing.T) {
	a := []float32{3, 4}
	if d := Dot(a, a); !almostEq(d, 25, 1e-9) {
		t.Fatalf("Dot = %v", d)
	}
	if n := Norm2(a); !almostEq(n, 5, 1e-9) {
		t.Fatalf("Norm2 = %v", n)
	}
}

func TestMaxAbs(t *testing.T) {
	if m := MaxAbs([]float32{-7, 3, 5}); m != 7 {
		t.Fatalf("MaxAbs = %v", m)
	}
	if m := MaxAbs(nil); m != 0 {
		t.Fatalf("MaxAbs(nil) = %v", m)
	}
}

func TestClipNorm(t *testing.T) {
	x := []float32{3, 4}
	before := ClipNorm(x, 1)
	if !almostEq(before, 5, 1e-9) {
		t.Fatalf("pre-norm = %v", before)
	}
	if n := Norm2(x); !almostEq(n, 1, 1e-6) {
		t.Fatalf("post-norm = %v", n)
	}
	// No clipping when already under the cap.
	y := []float32{0.1, 0}
	ClipNorm(y, 1)
	if y[0] != 0.1 {
		t.Fatal("ClipNorm modified a vector under the cap")
	}
}

func TestDiff(t *testing.T) {
	d := make([]float32, 2)
	Diff(d, []float32{5, 7}, []float32{2, 3})
	if d[0] != 3 || d[1] != 4 {
		t.Fatalf("Diff = %v", d)
	}
}

func TestSoftmax(t *testing.T) {
	logits := []float32{1, 2, 3}
	probs := make([]float32, 3)
	logZ := Softmax(probs, logits)
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("prob out of range: %v", p)
		}
		sum += float64(p)
	}
	if !almostEq(sum, 1, 1e-5) {
		t.Fatalf("softmax sum = %v", sum)
	}
	if probs[2] <= probs[1] || probs[1] <= probs[0] {
		t.Fatalf("softmax not monotone: %v", probs)
	}
	// logZ should equal LogSumExp of the logits.
	if !almostEq(logZ, LogSumExp(logits), 1e-9) {
		t.Fatalf("logZ = %v, LSE = %v", logZ, LogSumExp(logits))
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := []float32{1000, 1001, 1002}
	probs := make([]float32, 3)
	Softmax(probs, logits)
	if !AllFinite(probs) {
		t.Fatalf("softmax overflowed: %v", probs)
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	x := []float32{0, 0, 0, 0}
	Softmax(x, x)
	for _, p := range x {
		if !almostEq(float64(p), 0.25, 1e-6) {
			t.Fatalf("uniform softmax = %v", x)
		}
	}
}

func TestArgMax(t *testing.T) {
	if i := ArgMax([]float32{1, 5, 3}); i != 1 {
		t.Fatalf("ArgMax = %d", i)
	}
	if i := ArgMax([]float32{2, 2}); i != 0 {
		t.Fatalf("ArgMax tie = %d", i)
	}
	if i := ArgMax(nil); i != -1 {
		t.Fatalf("ArgMax(nil) = %d", i)
	}
}

func TestMatVec(t *testing.T) {
	// W = [[1 2],[3 4],[5 6]] (3x2), x = [1, 10]
	w := []float32{1, 2, 3, 4, 5, 6}
	x := []float32{1, 10}
	y := make([]float32, 3)
	MatVec(y, w, 3, 2, x)
	want := []float32{21, 43, 65}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MatVec = %v, want %v", y, want)
		}
	}
}

func TestMatTVec(t *testing.T) {
	w := []float32{1, 2, 3, 4, 5, 6} // 3x2
	x := []float32{1, 1, 1}
	y := make([]float32, 2)
	MatTVec(y, w, 3, 2, x)
	if y[0] != 9 || y[1] != 12 {
		t.Fatalf("MatTVec = %v", y)
	}
}

func TestMatVecDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatVec with bad dims did not panic")
		}
	}()
	MatVec(make([]float32, 3), make([]float32, 5), 3, 2, make([]float32, 2))
}

func TestOuterAccum(t *testing.T) {
	w := make([]float32, 6) // 3x2
	OuterAccum(w, 3, 2, 2, []float32{1, 0, 2}, []float32{3, 4})
	want := []float32{6, 8, 0, 0, 12, 16}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("OuterAccum = %v, want %v", w, want)
		}
	}
}

func TestMatTVecConsistentWithMatVec(t *testing.T) {
	// <W x, y> must equal <x, W^T y>.
	w := []float32{1, -2, 0.5, 3, -1, 2, 4, 0, 1, 1, -3, 2} // 4x3
	x := []float32{0.3, -1, 2}
	y := []float32{1, 0.5, -2, 0.25}
	wx := make([]float32, 4)
	MatVec(wx, w, 4, 3, x)
	wty := make([]float32, 3)
	MatTVec(wty, w, 4, 3, y)
	if !almostEq(Dot(wx, y), Dot(x, wty), 1e-5) {
		t.Fatalf("adjoint identity violated: %v vs %v", Dot(wx, y), Dot(x, wty))
	}
}

func TestTanhSigmoid(t *testing.T) {
	x := []float32{0}
	Tanh(x)
	if x[0] != 0 {
		t.Fatalf("tanh(0) = %v", x[0])
	}
	y := []float32{0}
	Sigmoid(y)
	if !almostEq(float64(y[0]), 0.5, 1e-6) {
		t.Fatalf("sigmoid(0) = %v", y[0])
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float32{1, 2, 3}) {
		t.Fatal("finite vector flagged")
	}
	if AllFinite([]float32{1, float32(math.NaN())}) {
		t.Fatal("NaN not flagged")
	}
	if AllFinite([]float32{float32(math.Inf(1))}) {
		t.Fatal("Inf not flagged")
	}
}

// TestAllFiniteMatchesReference checks the two-lanes-per-word test against
// math.IsNaN/IsInf for every edge of the float32 encoding, at every
// position of every length up to 19 (both tails the word loop leaves), on
// both an aligned and a 4-byte-offset slice.
func TestAllFiniteMatchesReference(t *testing.T) {
	specials := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x807fffff, // subnormals
		0x00800000, 0x80800000, // ±smallest normal
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00001, 0x7fffffff, // quiet NaNs, with payloads
		0x7f800001, 0xffbfffff, 0x7fa00000, // signalling NaNs
	}
	ref := func(x []float32) bool {
		for _, v := range x {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
		return true
	}
	backing := make([]float32, 21)
	for off := 0; off <= 1; off++ {
		for n := 0; n <= 19; n++ {
			x := backing[off : off+n]
			for i := range x {
				x[i] = float32(i) - 7.5
			}
			if got := AllFinite(x); !got {
				t.Fatalf("offset %d, len %d: finite vector flagged", off, n)
			}
			for pos := 0; pos < n; pos++ {
				for _, bits := range specials {
					saved := x[pos]
					x[pos] = math.Float32frombits(bits)
					if got, want := AllFinite(x), ref(x); got != want {
						t.Fatalf("offset %d, len %d, %#08x at %d: AllFinite = %v, want %v", off, n, bits, pos, got, want)
					}
					x[pos] = saved
				}
			}
		}
	}
}

func BenchmarkAllFinite(b *testing.B) {
	x := make([]float32, 1<<18) // a 1 MiB model update
	for i := range x {
		x[i] = float32(i%97) * 0.01
	}
	b.SetBytes(int64(4 * len(x)))
	for i := 0; i < b.N; i++ {
		if !AllFinite(x) {
			b.Fatal("finite vector flagged")
		}
	}
}

// Property: Add then Sub with the same operand restores the input (within
// float32 rounding).
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for _, v := range append(Clone(a), b...) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) ||
				math.Abs(float64(v)) > 1e6 {
				return true // skip pathological float inputs
			}
		}
		orig := Clone(a)
		Add(a, b)
		Sub(a, b)
		for i := range a {
			if math.Abs(float64(a[i]-orig[i])) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability vector for finite inputs.
func TestQuickSoftmaxSimplex(t *testing.T) {
	f := func(logits []float32) bool {
		if len(logits) == 0 {
			return true
		}
		for i, v := range logits {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				logits[i] = 0
			}
		}
		probs := make([]float32, len(logits))
		Softmax(probs, logits)
		var sum float64
		for _, p := range probs {
			if p < 0 {
				return false
			}
			sum += float64(p)
		}
		return almostEq(sum, 1, 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAXPY(b *testing.B) {
	x := make([]float32, 4096)
	y := make([]float32, 4096)
	for i := range y {
		y[i] = float32(i)
	}
	b.SetBytes(4096 * 4)
	for i := 0; i < b.N; i++ {
		AXPY(x, 0.001, y)
	}
}

func BenchmarkMatVec(b *testing.B) {
	const r, c = 64, 64
	w := make([]float32, r*c)
	x := make([]float32, c)
	y := make([]float32, r)
	for i := range w {
		w[i] = float32(i%7) * 0.1
	}
	for i := range x {
		x[i] = 0.5
	}
	for i := 0; i < b.N; i++ {
		MatVec(y, w, r, c, x)
	}
}

// wideCase is a row-major r-by-c matrix and four vectors of each length
// the 4-wide kernels take. The coefficient vectors mix runs of rows with
// no skipped term, which OuterAccumMatTVec4 fuses, with rows that hold 0,
// -0, a NaN, or values small enough that a*x underflows to 0.
type wideCase struct {
	w  []float32
	xr [4][]float32 // length r: MatTVec coefficients
	xc [4][]float32 // length c
}

func newWideCase(r, c int, seed uint32) wideCase {
	next := func() float32 {
		seed = seed*1664525 + 1013904223
		return float32(int32(seed>>8)-1<<23) / (1 << 23)
	}
	wc := wideCase{w: make([]float32, r*c)}
	for i := range wc.w {
		wc.w[i] = next()
	}
	specials := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	for k := range wc.xr {
		wc.xr[k] = make([]float32, r)
		wc.xc[k] = make([]float32, c)
		for i := range wc.xr[k] {
			wc.xr[k][i] = next()
			// Every fourth row has one special coefficient, in a
			// different vector each time, so rows with skipped terms
			// sit between runs of fused rows.
			if i%4 == 1 && k == (i/4)%4 {
				wc.xr[k][i] = specials[(i/4+k)%len(specials)]
			}
		}
		for j := range wc.xc[k] {
			wc.xc[k][j] = next()
		}
		// The last row's coefficients are all zeros, which both kernels
		// skip; the one before is all smallest subnormals, where a*x
		// underflows for a < 1/2, so OuterAccum skips it and MatTVec
		// does not.
		wc.xr[k][r-1] = specials[k%2]
		if r > 1 {
			wc.xr[k][r-2] = specials[2+k%2]
		}
	}
	// A NaN is not 0, so its row takes the fused path.
	if r > 3 {
		wc.xr[2][r-3] = float32(math.NaN())
	}
	return wc
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), 1-wide %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// Each 4-wide kernel, dispatched (on an AVX2 host, the assembly) and as
// its Go body, is four calls of its 1-wide kernel, bit for bit. r = 1..9
// covers MatVec4's 4-row blocks and each row tail, and runs of fused rows
// of each length; c covers whole 8-column strips, strip tails, MatVec4's
// 4-column blocks and column tails, and the 1-wide kernels' four-element
// unroll.
func TestWideKernelsMatchOneWide(t *testing.T) {
	t.Logf("AVX2 kernels: %v", useAVX2)
	four := func(n int) (v [4][]float32) {
		for k := range v {
			v[k] = make([]float32, n)
		}
		return v
	}
	for _, c := range []int{1, 5, 8, 12, 16, 32, 40, 72} {
		for r := 1; r <= 9; r++ {
			wc := newWideCase(r, c, uint32(31*r+c))
			want, got, gotGo := four(r), four(r), four(r)
			for k := range want {
				MatVec(want[k], wc.w, r, c, wc.xc[k])
			}
			MatVec4(got, wc.w, r, c, wc.xc)
			matVec4Go(gotGo, wc.w, 0, r, c, wc.xc)
			for k := range want {
				sameBits(t, fmt.Sprintf("%dx%d MatVec4 y[%d]", r, c, k), got[k], want[k])
				sameBits(t, fmt.Sprintf("%dx%d matVec4Go y[%d]", r, c, k), gotGo[k], want[k])
			}

			// A skipped term shows only where nothing else moves the
			// sum: in g's rows of skipped coefficients, which start at
			// -0 (adding a +0 term makes them +0), and in an Inf in the
			// all-zero row of w (a 0*Inf term makes z[k] NaN).
			w := Clone(wc.w)
			w[(r-1)*c] = float32(math.Inf(1))
			for _, a := range []float32{0.75, 1.0 / 3} {
				gWant := make([]float32, r*c)
				for i := range gWant {
					gWant[i] = float32(i%5) - 2
					if i >= (r-2)*c {
						gWant[i] = float32(math.Copysign(0, -1))
					}
				}
				g, gGo := Clone(gWant), Clone(gWant)
				want, got, gotGo := four(c), four(c), four(c)
				for k := range want {
					Fill(got[k], 9) // the kernels zero z first, as MatTVec does
					Fill(gotGo[k], 9)
					OuterAccum(gWant, r, c, a, wc.xr[k], wc.xc[k])
					MatTVec(want[k], w, r, c, wc.xr[k])
				}
				OuterAccumMatTVec4(g, w, r, c, a, wc.xr, wc.xc, got)
				outerAccumMatTVec4Go(gGo, w, r, c, a, wc.xr, wc.xc, gotGo)
				sameBits(t, fmt.Sprintf("%dx%d a=%v g", r, c, a), g, gWant)
				sameBits(t, fmt.Sprintf("%dx%d a=%v Go g", r, c, a), gGo, gWant)
				for k := range want {
					sameBits(t, fmt.Sprintf("%dx%d a=%v z[%d]", r, c, a, k), got[k], want[k])
					sameBits(t, fmt.Sprintf("%dx%d a=%v Go z[%d]", r, c, a, k), gotGo[k], want[k])
				}
			}
		}
	}
}

func TestWideKernelDimPanics(t *testing.T) {
	four := func(n int) [4][]float32 {
		return [4][]float32{make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)}
	}
	short := four(2)
	short[3] = short[3][:1]
	for i, f := range []func(){
		func() { MatVec4(four(3), make([]float32, 5), 3, 2, four(2)) },
		func() { MatVec4(four(3), make([]float32, 6), 3, 2, short) },
		func() { OuterAccumMatTVec4(make([]float32, 6), make([]float32, 5), 3, 2, 1, four(3), four(2), four(2)) },
		func() { OuterAccumMatTVec4(make([]float32, 6), make([]float32, 6), 3, 2, 1, four(3), four(2), short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// BenchmarkWideKernels times each 4-wide kernel, dispatched (on an AVX2
// host, the assembly) and as its Go body, against four calls of its
// 1-wide kernel at a 256x32 model's shape, with no zero coefficients.
func BenchmarkWideKernels(b *testing.B) {
	const r, c = 256, 32
	wc := newWideCase(r, c, 1)
	for k := range wc.xr {
		for i := range wc.xr[k] {
			wc.xr[k][i] = 0.5 + float32(i%7)/8
		}
	}
	g := make([]float32, r*c)
	var yr, yc [4][]float32
	for k := range yr {
		yr[k], yc[k] = make([]float32, r), make([]float32, c)
	}
	b.Run("MatVec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range yr {
				MatVec(yr[k], wc.w, r, c, wc.xc[k])
			}
		}
	})
	b.Run("MatVec4/go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matVec4Go(yr, wc.w, 0, r, c, wc.xc)
		}
	})
	b.Run("MatVec4/dispatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatVec4(yr, wc.w, r, c, wc.xc)
		}
	})
	b.Run("OuterAccum+MatTVec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range yc {
				OuterAccum(g, r, c, 1e-3, wc.xr[k], wc.xc[k])
				MatTVec(yc[k], wc.w, r, c, wc.xr[k])
			}
		}
	})
	b.Run("OuterAccumMatTVec4/go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			outerAccumMatTVec4Go(g, wc.w, r, c, 1e-3, wc.xr, wc.xc, yc)
		}
	})
	b.Run("OuterAccumMatTVec4/dispatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			OuterAccumMatTVec4(g, wc.w, r, c, 1e-3, wc.xr, wc.xc, yc)
		}
	})
}
