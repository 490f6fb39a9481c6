package fedopt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/vecf"
)

func TestFedSGDStep(t *testing.T) {
	o := NewFedSGD(0.5)
	p := []float32{1, 2}
	o.Step(p, []float32{2, -2})
	if p[0] != 2 || p[1] != 1 {
		t.Fatalf("params = %v", p)
	}
	if o.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestFedSGDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lr=0 accepted")
		}
	}()
	NewFedSGD(0)
}

func TestFedAvgMAccumulatesMomentum(t *testing.T) {
	o := NewFedAvgM(1.0, 0.5)
	p := []float32{0}
	o.Step(p, []float32{1}) // m=1, p=1
	if p[0] != 1 {
		t.Fatalf("after step 1: %v", p)
	}
	o.Step(p, []float32{1}) // m=1.5, p=2.5
	if p[0] != 2.5 {
		t.Fatalf("after step 2: %v", p)
	}
	o.Reset()
	o.Step(p, []float32{0}) // momentum cleared: no movement
	if p[0] != 2.5 {
		t.Fatalf("after reset: %v", p)
	}
}

func TestFedAdamMovesTowardUpdateDirection(t *testing.T) {
	o := DefaultFedAdam()
	p := []float32{0, 0}
	o.Step(p, []float32{1, -1})
	if p[0] <= 0 || p[1] >= 0 {
		t.Fatalf("FedAdam moved against the update: %v", p)
	}
}

func TestFedAdamStepSizeBounded(t *testing.T) {
	// Adam's per-coordinate step magnitude is bounded by roughly
	// lr * (1-b1) * |u| / (sqrt((1-b2)) * |u| + eps) <= lr for the first
	// step; verify it does not explode for huge updates.
	o := NewFedAdam(0.1, 0.9, 0.99, 1e-3)
	p := []float32{0}
	o.Step(p, []float32{1e6})
	if math.Abs(float64(p[0])) > 0.2 {
		t.Fatalf("unbounded adaptive step: %v", p[0])
	}
}

func TestFedAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = ||x - target||^2 by feeding -grad as the update.
	o := DefaultFedAdam()
	target := []float32{3, -2, 0.5}
	x := []float32{0, 0, 0}
	for i := 0; i < 3000; i++ {
		u := make([]float32, 3)
		for j := range u {
			u[j] = 2 * (target[j] - x[j])
		}
		o.Step(x, u)
	}
	for j := range x {
		if math.Abs(float64(x[j]-target[j])) > 0.1 {
			t.Fatalf("FedAdam did not converge: %v vs %v", x, target)
		}
	}
}

func TestFedAdamHyperparamPanics(t *testing.T) {
	cases := [][4]float64{
		{0, 0.9, 0.99, 1e-3},
		{0.1, 1.0, 0.99, 1e-3},
		{0.1, 0.9, 1.0, 1e-3},
		{0.1, 0.9, 0.99, 0},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d accepted", i)
				}
			}()
			NewFedAdam(c[0], c[1], c[2], c[3])
		}()
	}
}

func TestStepLengthMismatchPanics(t *testing.T) {
	for _, o := range []Optimizer{NewFedSGD(1), NewFedAvgM(1, 0.5), DefaultFedAdam()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted mismatched lengths", o.Name())
				}
			}()
			o.Step([]float32{1, 2}, []float32{1})
		}()
	}
}

func TestOptimizerStateSizeChangePanics(t *testing.T) {
	o := DefaultFedAdam()
	o.Step(make([]float32, 3), make([]float32, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("silent state size change")
		}
	}()
	o.Step(make([]float32, 4), make([]float32, 4))
}

func TestStalenessWeights(t *testing.T) {
	w := NewFedBuff(0.5)
	if w.Weight(1, 0) != 1 {
		t.Fatalf("Weight(1, 0) = %v", w.Weight(1, 0))
	}
	if math.Abs(w.Weight(1, 3)-0.5) > 1e-12 {
		t.Fatalf("Weight(1, 3) = %v, want 0.5", w.Weight(1, 3))
	}
	// Monotone decreasing.
	prev := 2.0
	for s := 0; s < 50; s++ {
		v := w.Weight(1, s)
		if v >= prev {
			t.Fatalf("staleness weight not decreasing at s=%d", s)
		}
		prev = v
	}
	var c FedAvg
	if c.Weight(1, 0) != 1 || c.Weight(1, 100) != 1 {
		t.Fatal("fedavg weight not constant in staleness")
	}
}

func TestStalenessPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewFedBuff(-1) },
		func() { NewFedBuff(0.5).Weight(1, -1) },
		func() { FedAvg{}.Weight(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: FedSGD with lr=1 is exact addition.
func TestQuickFedSGDIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		p := make([]float32, n)
		u := make([]float32, n)
		for i := range p {
			p[i] = float32(r.NormFloat64())
			u[i] = float32(r.NormFloat64())
		}
		want := vecf.Clone(p)
		vecf.Add(want, u)
		NewFedSGD(1).Step(p, u)
		for i := range p {
			if p[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FedBuff's staleness factor lies in (0, 1] and decreases with s.
func TestQuickStalenessMonotone(t *testing.T) {
	f := func(aRaw uint8, s uint8) bool {
		w := NewFedBuff(float64(aRaw)/64 + 0.1)
		v1, v2 := w.Weight(1, int(s)), w.Weight(1, int(s)+1)
		return v1 > 0 && v1 <= 1 && v2 < v1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFedAdamStep(b *testing.B) {
	o := DefaultFedAdam()
	p := make([]float32, 4096)
	u := make([]float32, 4096)
	for i := range u {
		u[i] = 0.01
	}
	b.SetBytes(4096 * 4)
	for i := 0; i < b.N; i++ {
		o.Step(p, u)
	}
}
