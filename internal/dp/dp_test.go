package dp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/vecf"
)

func testConfig() Config {
	return Config{Clip: 1.0, NoiseMultiplier: 1.0, Delta: 1e-6, Seed: 1}
}

func TestValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Clip = 0 },
		func(c *Config) { c.NoiseMultiplier = 0 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.Delta = 1 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{})
}

func TestClipBoundsNorm(t *testing.T) {
	m := New(testConfig())
	u := []float32{3, 4} // norm 5
	pre := m.ClipUpdate(u)
	if pre != 5 {
		t.Fatalf("pre-clip norm = %v", pre)
	}
	if n := vecf.Norm2(u); math.Abs(n-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v", n)
	}
	// Updates under the bound are untouched.
	small := []float32{0.1, 0}
	m.ClipUpdate(small)
	if small[0] != 0.1 {
		t.Fatal("clip modified an in-bound update")
	}
}

// uniform is the release statistics of a plain mean of k clipped updates
// (every weight 1), whose noise stddev is z*Clip/k per coordinate.
func uniform(k int) Release { return Release{N: k, TotalWeight: float64(k), MaxWeight: 1} }

func TestNoiseMagnitude(t *testing.T) {
	m := New(testConfig())
	const dim, k = 20000, 10
	agg := make([]float32, dim)
	m.NoiseRelease(agg, uniform(k))
	// Expected stddev = z*clip/k = 0.1.
	var sumsq float64
	for _, v := range agg {
		sumsq += float64(v) * float64(v)
	}
	std := math.Sqrt(sumsq / dim)
	if std < 0.09 || std > 0.11 {
		t.Fatalf("noise std = %v, want ~0.1", std)
	}
}

func TestNoiseScalesInverselyWithK(t *testing.T) {
	measure := func(k int) float64 {
		m := New(testConfig())
		agg := make([]float32, 5000)
		m.NoiseRelease(agg, uniform(k))
		var s float64
		for _, v := range agg {
			s += float64(v) * float64(v)
		}
		return math.Sqrt(s / 5000)
	}
	if r := measure(1) / measure(100); r < 50 || r > 200 {
		t.Fatalf("noise ratio k=1 vs k=100 is %v, want ~100", r)
	}
}

func TestAccountantMonotone(t *testing.T) {
	m := New(testConfig())
	if m.Epsilon() != 0 {
		t.Fatalf("epsilon before any release = %v", m.Epsilon())
	}
	prev := 0.0
	agg := make([]float32, 4)
	for i := 0; i < 50; i++ {
		m.NoiseRelease(agg, uniform(10))
		eps := m.Epsilon()
		if eps <= prev {
			t.Fatalf("epsilon not increasing at release %d: %v <= %v", i, eps, prev)
		}
		prev = eps
	}
	if m.Releases() != 50 {
		t.Fatalf("Releases = %d", m.Releases())
	}
	if m.Delta() != 1e-6 {
		t.Fatalf("Delta = %v", m.Delta())
	}
}

func TestEpsilonAfterMatchesActual(t *testing.T) {
	m := New(testConfig())
	want := m.EpsilonAfter(7)
	agg := make([]float32, 2)
	for i := 0; i < 7; i++ {
		m.NoiseRelease(agg, uniform(5))
	}
	if math.Abs(m.Epsilon()-want) > 1e-12 {
		t.Fatalf("EpsilonAfter(7)=%v but actual=%v", want, m.Epsilon())
	}
	if m.EpsilonAfter(0) != 0 {
		t.Fatal("EpsilonAfter(0) != 0")
	}
}

func TestMoreNoiseLessEpsilon(t *testing.T) {
	quiet := New(Config{Clip: 1, NoiseMultiplier: 4, Delta: 1e-6, Seed: 1})
	loud := New(Config{Clip: 1, NoiseMultiplier: 0.5, Delta: 1e-6, Seed: 1})
	if quiet.EpsilonAfter(100) >= loud.EpsilonAfter(100) {
		t.Fatalf("higher noise should give lower epsilon: %v vs %v",
			quiet.EpsilonAfter(100), loud.EpsilonAfter(100))
	}
}

func TestNoiseAggregatePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	New(testConfig()).NoiseRelease(make([]float32, 2), uniform(0))
}

// Property: clipping is idempotent and never increases the norm.
func TestQuickClipContract(t *testing.T) {
	m := New(testConfig())
	f := func(seed uint64) bool {
		r := rng.New(seed)
		u := make([]float32, 1+r.Intn(30))
		for i := range u {
			u[i] = float32(r.NormFloat64() * 10)
		}
		m.ClipUpdate(u)
		n1 := vecf.Norm2(u)
		m.ClipUpdate(u)
		n2 := vecf.Norm2(u)
		return n1 <= 1+1e-4 && math.Abs(n1-n2) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNoiseAggregate(b *testing.B) {
	m := New(testConfig())
	agg := make([]float32, 4096)
	b.SetBytes(4096 * 4)
	for i := 0; i < b.N; i++ {
		m.NoiseRelease(agg, uniform(100))
	}
}

// TestZeroSeedIsUnpredictable is the regression for the spec-carried-seed
// hole: a zero Config.Seed (the networked default) must seed the noise
// stream from crypto/rand, so two mechanisms built from the same config
// draw different noise. A predictable, spec-carried seed would let any
// party holding the task spec subtract the noise and void the guarantee.
func TestZeroSeedIsUnpredictable(t *testing.T) {
	cfg := Config{Clip: 1, NoiseMultiplier: 1, Delta: 1e-6} // Seed: 0
	a := make([]float32, 64)
	b := make([]float32, 64)
	New(cfg).NoiseRelease(a, uniform(1))
	New(cfg).NoiseRelease(b, uniform(1))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two zero-seed mechanisms drew identical noise; seed is predictable")
	}
}

// TestExplicitSeedIsDeterministic pins the other half of the seed contract:
// a nonzero seed reproduces the noise stream exactly (simulation and test
// reproducibility), and different explicit seeds diverge.
func TestExplicitSeedIsDeterministic(t *testing.T) {
	cfg := testConfig() // Seed: 1
	a := make([]float32, 64)
	b := make([]float32, 64)
	New(cfg).NoiseRelease(a, uniform(1))
	New(cfg).NoiseRelease(b, uniform(1))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded mechanisms diverged at coordinate %d: %v vs %v", i, a[i], b[i])
		}
	}
	cfg2 := cfg
	cfg2.Seed = 2
	c := make([]float32, 64)
	New(cfg2).NoiseRelease(c, uniform(1))
	if a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Fatal("different seeds produced the same noise stream")
	}
}

// TestSigmaGolden pins the calibrated noise stddev per aggregation-weight
// regime — the regression for the staleness-weight sensitivity bug, where
// sigma was computed as z*Clip/k regardless of the weights. A release whose
// max weight exceeds the uniform share must get proportionally more noise.
func TestSigmaGolden(t *testing.T) {
	m := New(Config{Clip: 2, NoiseMultiplier: 1.5, Delta: 1e-6, Seed: 1})
	cases := []struct {
		name string
		rel  Release
		want float64
	}{
		// fedavg / uniform fedbuff: w_i = 1 for all i.
		{"uniform k=10", Release{N: 10, TotalWeight: 10, MaxWeight: 1}, 1.5 * 2 * 1.0 / 10},
		// staleness-weighted fedbuff: a fresh update at weight 1 among
		// damped stale ones — MaxWeight is the uniform 1 but TotalWeight
		// shrinks, raising the fresh client's share of the mean.
		{"staleness-damped", Release{N: 4, TotalWeight: 2.5, MaxWeight: 1}, 1.5 * 2 * 1.0 / 2.5},
		// a super-unit weight (no fedopt rule caps weights at 1): the
		// dominant client moves the mean by MaxWeight/TotalWeight.
		{"dominant weight", Release{N: 3, TotalWeight: 4, MaxWeight: 2}, 1.5 * 2 * 2.0 / 4},
		// single client: the release IS that client's update.
		{"k=1", Release{N: 1, TotalWeight: 0.8, MaxWeight: 0.8}, 1.5 * 2 * 1.0},
	}
	for _, tc := range cases {
		if got := m.Sigma(tc.rel); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Sigma = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestNoiseReleasePanicsOnBadStats asserts malformed release statistics are
// aggregation bugs, not recoverable conditions.
func TestNoiseReleasePanicsOnBadStats(t *testing.T) {
	bad := []Release{
		{N: 0, TotalWeight: 1, MaxWeight: 1},
		{N: 1, TotalWeight: 0, MaxWeight: 1},
		{N: 1, TotalWeight: 1, MaxWeight: 0},
		{N: 1, TotalWeight: 1, MaxWeight: 2},
	}
	for i, rel := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d accepted: %+v", i, rel)
				}
			}()
			New(testConfig()).NoiseRelease(make([]float32, 2), rel)
		}()
	}
}

// TestBudgetGate covers CanRelease against EpsilonAfter: releases are
// allowed exactly while one more still fits the budget, and a refused
// release leaves the accountant untouched.
func TestBudgetGate(t *testing.T) {
	cfg := testConfig()
	cfg.EpsilonBudget = New(cfg).EpsilonAfter(3) + 1e-9 // room for exactly 3
	m := New(cfg)
	agg := make([]float32, 2)
	for i := 0; i < 3; i++ {
		if !m.CanRelease() {
			t.Fatalf("release %d refused inside budget", i+1)
		}
		m.NoiseRelease(agg, uniform(5))
	}
	if m.CanRelease() {
		t.Fatalf("4th release allowed: eps after 4 = %v > budget %v",
			m.EpsilonAfter(4), m.Budget())
	}
	if m.Releases() != 3 {
		t.Fatalf("refused release changed the accountant: %d releases", m.Releases())
	}
	// No budget = always releasable.
	if !New(testConfig()).CanRelease() {
		t.Fatal("unbudgeted mechanism refused a release")
	}
}

// TestLocalSigma pins the on-device noise scale: a single update's
// sensitivity is the clip itself, so sigma = z * Clip.
func TestLocalSigma(t *testing.T) {
	m := New(Config{Clip: 0.5, NoiseMultiplier: 2, Delta: 1e-6, Seed: 1, Local: true})
	if !m.LocalEnabled() {
		t.Fatal("LocalEnabled = false")
	}
	if got := m.LocalSigma(); got != 1.0 {
		t.Fatalf("LocalSigma = %v, want 1.0", got)
	}
}
