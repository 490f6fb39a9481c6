package buffer

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// release drains b through ReleaseInto into a fresh vector.
func release(b *Buffered) (update []float32, totalWeight float64, n int) {
	update = make([]float32, b.numParams)
	totalWeight, n = b.ReleaseInto(update)
	return update, totalWeight, n
}

func TestWeightedMean(t *testing.T) {
	b := New(2, 2, 1)
	if b.Add([]float32{1, 0}, 1, 0) {
		t.Fatal("goal reported after 1/2 updates")
	}
	if !b.Add([]float32{4, 2}, 3, 0) {
		t.Fatal("goal not reported on 2/2")
	}
	u, w, n := release(b)
	if n != 2 || w != 4 {
		t.Fatalf("n=%d w=%v", n, w)
	}
	// (1*[1,0] + 3*[4,2]) / 4 = [3.25, 1.5]
	if math.Abs(float64(u[0])-3.25) > 1e-6 || math.Abs(float64(u[1])-1.5) > 1e-6 {
		t.Fatalf("update = %v", u)
	}
}

func TestGoalTriggersExactlyOnce(t *testing.T) {
	b := New(1, 5, 4)
	trues := 0
	for i := 0; i < 5; i++ {
		if b.Add([]float32{1}, 1, i) {
			trues++
		}
	}
	if trues != 1 {
		t.Fatalf("goal triggered %d times", trues)
	}
}

func TestShardingDoesNotChangeResult(t *testing.T) {
	r := rng.New(1)
	updates := make([][]float32, 10)
	weights := make([]float64, 10)
	for i := range updates {
		updates[i] = []float32{float32(r.NormFloat64()), float32(r.NormFloat64())}
		weights[i] = 0.5 + r.Float64()
	}
	results := make([][]float32, 0, 3)
	for _, shards := range []int{1, 3, 8} {
		b := New(2, 10, shards)
		for i := range updates {
			b.Add(updates[i], weights[i], i)
		}
		u, _, _ := release(b)
		results = append(results, u)
	}
	for s := 1; s < len(results); s++ {
		for j := range results[0] {
			if math.Abs(float64(results[s][j]-results[0][j])) > 1e-5 {
				t.Fatalf("shard count changed result: %v vs %v", results[s], results[0])
			}
		}
	}
}

func TestReleaseResetsState(t *testing.T) {
	b := New(1, 2, 2)
	b.Add([]float32{2}, 1, 0)
	b.Add([]float32{2}, 1, 1)
	u1, _, _ := release(b)
	if u1[0] != 2 {
		t.Fatalf("first release = %v", u1)
	}
	if b.Count() != 0 {
		t.Fatalf("count after release = %d", b.Count())
	}
	b.Add([]float32{6}, 1, 0)
	b.Add([]float32{6}, 1, 1)
	u2, _, _ := release(b)
	if u2[0] != 6 {
		t.Fatalf("second release contaminated by first: %v", u2)
	}
	if b.Releases() != 2 {
		t.Fatalf("Releases = %d", b.Releases())
	}
}

func TestReleaseEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty release did not panic")
		}
	}()
	release(New(1, 1, 1))
}

func TestAddValidation(t *testing.T) {
	b := New(2, 1, 1)
	for _, f := range []func(){
		func() { b.Add([]float32{1}, 1, 0) },     // wrong length
		func() { b.Add([]float32{1, 2}, 0, 0) },  // zero weight
		func() { b.Add([]float32{1, 2}, -1, 0) }, // negative weight
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

func TestNewValidation(t *testing.T) {
	for _, args := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New%v accepted", args)
				}
			}()
			New(args[0], args[1], args[2])
		}()
	}
}

func TestNegativeShardHint(t *testing.T) {
	b := New(1, 1, 4)
	if !b.Add([]float32{1}, 1, -7) {
		t.Fatal("goal not reached")
	}
	u, _, _ := release(b)
	if u[0] != 1 {
		t.Fatalf("update = %v", u)
	}
}

func TestSetGoal(t *testing.T) {
	b := New(1, 10, 1)
	b.SetGoal(2)
	b.Add([]float32{1}, 1, 0)
	if !b.Add([]float32{1}, 1, 0) {
		t.Fatal("new goal not honored")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetGoal(0) accepted")
		}
	}()
	b.SetGoal(0)
}

func TestConcurrentAdds(t *testing.T) {
	const (
		workers = 8
		perW    = 250
		dim     = 16
	)
	b := New(dim, workers*perW, 8)
	var wg sync.WaitGroup
	var goalHits atomic32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := make([]float32, dim)
			for i := range u {
				u[i] = 1
			}
			for i := 0; i < perW; i++ {
				if b.Add(u, 1, w) {
					goalHits.inc()
				}
			}
		}(w)
	}
	wg.Wait()
	if goalHits.load() != 1 {
		t.Fatalf("goal hit %d times under concurrency", goalHits.load())
	}
	u, w, n := release(b)
	if n != workers*perW {
		t.Fatalf("n = %d", n)
	}
	if w != float64(workers*perW) {
		t.Fatalf("w = %v", w)
	}
	for _, v := range u {
		if math.Abs(float64(v)-1) > 1e-5 {
			t.Fatalf("mean of identical updates != 1: %v", v)
		}
	}
}

type atomic32 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic32) inc() {
	a.mu.Lock()
	a.v++
	a.mu.Unlock()
}
func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// Property: the released update equals the directly computed weighted mean,
// regardless of shard assignment and ordering.
func TestQuickWeightedMeanMatchesDirect(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		dim := 1 + r.Intn(8)
		shards := 1 + r.Intn(5)
		b := New(dim, n, shards)
		want := make([]float64, dim)
		var totalW float64
		for i := 0; i < n; i++ {
			u := make([]float32, dim)
			for j := range u {
				u[j] = float32(r.NormFloat64())
			}
			w := 0.1 + r.Float64()*3
			for j := range u {
				want[j] += w * float64(u[j])
			}
			totalW += w
			b.Add(u, w, r.Intn(1000))
		}
		got, gw, gn := release(b)
		if gn != n || math.Abs(gw-totalW) > 1e-9*totalW {
			return false
		}
		for j := range got {
			if math.Abs(float64(got[j])-want[j]/totalW) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddSharded(b *testing.B) {
	buf := New(2048, 1<<30, 8)
	u := make([]float32, 2048)
	for i := range u {
		u[i] = 0.01
	}
	b.SetBytes(2048 * 4)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			buf.Add(u, 1, i)
			i++
		}
	})
}

func BenchmarkAddSingleShard(b *testing.B) {
	buf := New(2048, 1<<30, 1)
	u := make([]float32, 2048)
	for i := range u {
		u[i] = 0.01
	}
	b.SetBytes(2048 * 4)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			buf.Add(u, 1, 0)
		}
	})
}

// TestReleaseIntoStats pins the weight statistics the DP tier calibrates
// noise from: TotalWeight and N as before, plus MaxWeight tracked across
// shards and reset by the release.
func TestReleaseIntoStats(t *testing.T) {
	b := New(2, 3, 2)
	b.Add([]float32{1, 0}, 0.5, 0)
	b.Add([]float32{0, 1}, 2.0, 1)
	b.Add([]float32{1, 1}, 1.0, 2)
	dst := make([]float32, 2)
	st := b.ReleaseIntoStats(dst)
	if st.N != 3 {
		t.Fatalf("N = %d", st.N)
	}
	if math.Abs(st.TotalWeight-3.5) > 1e-9 {
		t.Fatalf("TotalWeight = %v", st.TotalWeight)
	}
	if st.MaxWeight != 2.0 {
		t.Fatalf("MaxWeight = %v, want 2.0", st.MaxWeight)
	}
	// (0.5*[1,0] + 2*[0,1] + 1*[1,1]) / 3.5 = [1.5/3.5, 3/3.5]
	if math.Abs(float64(dst[0])-1.5/3.5) > 1e-6 || math.Abs(float64(dst[1])-3.0/3.5) > 1e-6 {
		t.Fatalf("dst = %v", dst)
	}
	// The max tracker resets with the rest of the shard state.
	b.Add([]float32{1, 1}, 0.25, 0)
	b.Add([]float32{1, 1}, 0.75, 1)
	b.Add([]float32{1, 1}, 0.5, 2)
	st = b.ReleaseIntoStats(dst)
	if st.MaxWeight != 0.75 {
		t.Fatalf("MaxWeight after reset = %v, want 0.75", st.MaxWeight)
	}
}

// TestReleaseIntoStatsMatchesReleaseInto keeps the two release paths
// byte-identical: ReleaseInto is now a thin wrapper over ReleaseIntoStats.
func TestReleaseIntoStatsMatchesReleaseInto(t *testing.T) {
	r := rng.New(7)
	mk := func() *Buffered {
		b := New(3, 6, 4)
		rr := rng.New(42)
		for i := 0; i < 6; i++ {
			u := []float32{float32(rr.NormFloat64()), float32(rr.NormFloat64()), float32(rr.NormFloat64())}
			b.Add(u, 0.5+rr.Float64(), i)
		}
		return b
	}
	_ = r
	d1 := make([]float32, 3)
	d2 := make([]float32, 3)
	st := mk().ReleaseIntoStats(d1)
	w, n := mk().ReleaseInto(d2)
	if st.TotalWeight != w || st.N != n {
		t.Fatalf("stats (%v,%d) != plain (%v,%d)", st.TotalWeight, st.N, w, n)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("released vectors differ at %d: %v vs %v", i, d1[i], d2[i])
		}
	}
}
