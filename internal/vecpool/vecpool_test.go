package vecpool_test

import (
	"sync"
	"testing"

	"repro/internal/vecpool"
)

func TestGetReturnsZeroedRequestedLength(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1024, 1025} {
		s := vecpool.GetFloats(n)
		if len(s) != n {
			t.Fatalf("GetFloats(%d) len = %d", n, len(s))
		}
		for i := range s {
			s[i] = 1
		}
		vecpool.PutFloats(s)
		s2 := vecpool.GetFloats(n)
		if len(s2) != n {
			t.Fatalf("second GetFloats(%d) len = %d", n, len(s2))
		}
		for i, v := range s2 {
			if v != 0 {
				t.Fatalf("pooled slice not zeroed at %d: %v (one client's data must never leak into another's buffer)", i, v)
			}
		}
	}
	if vecpool.GetFloats(0) != nil || vecpool.GetFloats(-1) != nil {
		t.Fatal("non-positive lengths must return nil")
	}
}

func TestPutRejectsForeignCapacities(t *testing.T) {
	// A plainly allocated slice can have any capacity; Put must silently discard
	// it rather than poison a size class.
	foreign := make([]float32, 5, 5)
	vecpool.PutFloats(foreign) // must not panic
	vecpool.PutUints(make([]uint32, 3, 3))
	vecpool.PutFloats(nil)
}

func TestUintVariant(t *testing.T) {
	u := vecpool.GetUints(33)
	if len(u) != 33 {
		t.Fatalf("GetUints len = %d", len(u))
	}
	u[0] = 42
	vecpool.PutUints(u)
	u2 := vecpool.GetUints(33)
	if u2[0] != 0 {
		t.Fatal("pooled uints not zeroed")
	}
}

// TestConcurrentLease exercises the pool discipline under the race
// detector: many goroutines leasing, writing a unique pattern, verifying
// it, and releasing. Any double-lease of a live buffer shows up as a
// pattern mismatch (and as a -race report).
func TestConcurrentLease(t *testing.T) {
	const goroutines = 16
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tag float32) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 64 + r%64
				s := vecpool.GetFloats(n)
				for i := range s {
					s[i] = tag
				}
				for i := range s {
					if s[i] != tag {
						t.Errorf("buffer shared between leaseholders: got %v want %v", s[i], tag)
						return
					}
				}
				vecpool.PutFloats(s)
			}
		}(float32(g + 1))
	}
	wg.Wait()
}

func BenchmarkGetPutFloats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := vecpool.GetFloats(1024)
		vecpool.PutFloats(s)
	}
}

// TestOutstandingCounters: pool-classed leases move the outstanding
// counters symmetrically; slices the pool discards (non-class capacity)
// touch neither side, so a Put of an alien slice cannot drive the count
// negative.
func TestOutstandingCounters(t *testing.T) {
	baseF, baseU := vecpool.OutstandingFloats(), vecpool.OutstandingUints()
	f := vecpool.GetFloats(100)
	u := vecpool.GetUints(33)
	if vecpool.OutstandingFloats() != baseF+1 || vecpool.OutstandingUints() != baseU+1 {
		t.Fatalf("after gets: floats %d->%d uints %d->%d",
			baseF, vecpool.OutstandingFloats(), baseU, vecpool.OutstandingUints())
	}
	// An alien slice with non-class capacity is discarded, uncounted.
	vecpool.PutFloats(make([]float32, 100))
	if vecpool.OutstandingFloats() != baseF+1 {
		t.Fatalf("alien put moved the counter to %d", vecpool.OutstandingFloats())
	}
	vecpool.PutFloats(f)
	vecpool.PutUints(u)
	if vecpool.OutstandingFloats() != baseF || vecpool.OutstandingUints() != baseU {
		t.Fatalf("after puts: floats %d (want %d) uints %d (want %d)",
			vecpool.OutstandingFloats(), baseF, vecpool.OutstandingUints(), baseU)
	}
}

// TestDebugLeaseTableCatchesForeignPut demonstrates the documented counter
// caveat and its debug-mode fix. With debug off, Putting a foreign slice of
// exact power-of-two capacity is adopted by the pool and decrements the
// Outstanding counter without a matching Get (the skew). With the
// provenance lease table on, the same Put is detected as foreign: counted
// in ForeignPuts, quarantined, and the counters stay balanced.
func TestDebugLeaseTableCatchesForeignPut(t *testing.T) {
	// Part 1: the skew the caveat documents, with debug off.
	baseF := vecpool.OutstandingFloats()
	vecpool.PutFloats(make([]float32, 64)) // foreign, power-of-two capacity: adopted
	if got := vecpool.OutstandingFloats(); got != baseF-1 {
		t.Fatalf("debug off: foreign Put should skew the counter: got %d, want %d", got, baseF-1)
	}
	// Rebalance by leasing the adopted slice back out.
	_ = vecpool.GetFloats(64)

	// Part 2: the same Put under the provenance lease table.
	vecpool.SetDebug(true)
	defer vecpool.SetDebug(false)
	if !vecpool.DebugEnabled() {
		t.Fatal("vecpool.SetDebug(true) did not enable debug")
	}

	baseF = vecpool.OutstandingFloats()
	s := vecpool.GetFloats(100) // class cap 128
	vecpool.PutFloats(s)
	if got := vecpool.OutstandingFloats(); got != baseF {
		t.Fatalf("own lease cycle unbalanced under debug: got %d, want %d", got, baseF)
	}
	if got := vecpool.ForeignPuts(); got != 0 {
		t.Fatalf("own lease cycle counted as foreign: %d", got)
	}

	vecpool.PutFloats(make([]float32, 64)) // deliberately foreign
	if got := vecpool.OutstandingFloats(); got != baseF {
		t.Fatalf("debug on: foreign Put skewed the counter: got %d, want %d", got, baseF)
	}
	if got := vecpool.ForeignPuts(); got != 1 {
		t.Fatalf("ForeignPuts = %d, want 1", got)
	}

	// A double release is caught the same way (the first Put retires the
	// lease, so the second has no matching provenance).
	s = vecpool.GetFloats(32)
	vecpool.PutFloats(s)
	vecpool.PutFloats(s)
	if got := vecpool.OutstandingFloats(); got != baseF {
		t.Fatalf("double Put skewed the counter under debug: got %d, want %d", got, baseF)
	}
	if got := vecpool.ForeignPuts(); got != 2 {
		t.Fatalf("ForeignPuts after double release = %d, want 2", got)
	}

	// The uint pool has the same protection.
	baseU := vecpool.OutstandingUints()
	u := vecpool.GetUints(100)
	vecpool.PutUints(u)
	vecpool.PutUints(make([]uint32, 128)) // foreign
	if got := vecpool.OutstandingUints(); got != baseU {
		t.Fatalf("debug on: foreign uint Put skewed the counter: got %d, want %d", got, baseU)
	}
	if got := vecpool.ForeignPuts(); got != 3 {
		t.Fatalf("ForeignPuts after uint foreign Put = %d, want 3", got)
	}
}
