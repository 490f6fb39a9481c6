// Package vecpool provides size-classed sync.Pool-backed scratch vectors
// for the serving hot path. Every upload an aggregator accepts used to
// allocate fresh []float32/[]uint32 buffers (chunk decode scratch, the
// session's reassembly vector, the download response's model clone); at the
// loadtest's hundreds of sessions per second that is the dominant GC
// pressure on the control plane. The pools here let the wire codec, the
// compression decoder, and the aggregator lease vectors and return them
// once their contents have been copied into durable state (PAPAYA's
// buffered aggregation shards, Section 6.3), so steady-state serving
// allocates almost nothing per upload. (Byte-buffer scratch for wire
// frames lives in httptransport's frame pool, which grows by appending
// rather than by known size and so doesn't fit the size-class scheme.)
//
// Discipline: a leased vector is owned exclusively by the leaseholder until
// Put. Putting a slice that something else still references is a data
// corruption bug (the next Get hands the same backing array to an unrelated
// caller) — callers must copy out before releasing, exactly like the
// aggregator does when it folds a pending upload into its shards. Get
// returns zeroed slices so pooled memory can never leak one client's update
// into another's reassembly buffer.
//
// Pools are size-classed by power-of-two capacity. Put accepts only slices
// whose capacity is an exact class size (anything else — e.g. a slice a
// plain wire decode allocated — is silently discarded to the garbage
// collector), so Get can always re-slice a pooled buffer to the requested
// length.
package vecpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Outstanding-lease counters: Get of a pool-classed vector increments,
// Put of one decrements (non-classed slices touch neither). They exist
// for the leak and double-release assertions in the session-reaper and
// stream-soak tests — a session reaped with its reassembly vector leased
// shows up as a stuck positive delta, and a double release drives the
// count below its baseline. Two relaxed atomics per op; negligible next
// to the copy the vector exists for.
//
// Caveat: the counters track capacity class, not provenance. A foreign
// slice that happens to have an exact power-of-two capacity is adopted by
// the pool on Put and decrements the count without a matching Get. No
// path in this repository Puts a foreign slice — vectors are released
// only by the code that leased them, and the relaying selector never
// decodes a model vector (the server's relay tests pin the balance at
// power-of-two sizes) — but the caveat stands for new callers: an
// assertion that demands exact balance can enable the SetDebug provenance
// lease table, which tracks exactly which slices this package handed out
// and quarantines foreign Puts instead of adopting them.
var (
	outFloats atomic.Int64
	outUints  atomic.Int64
)

// Debug-mode provenance lease table (the VecPoolDebug switch). When
// enabled, every pooled Get records its slice's backing array and Put
// verifies the slice came from this package: a foreign power-of-two slice
// is counted in ForeignPuts and discarded to the GC — neither adopted nor
// allowed to skew the Outstanding counters. The table costs a mutexed map
// op per pooled Get/Put, so it is strictly for tests and diagnosis, never
// the serving path.
var (
	debugOn          atomic.Bool
	debugMu          sync.Mutex
	debugFloatLeases map[*float32]struct{}
	debugUintLeases  map[*uint32]struct{}
	debugForeignPuts atomic.Int64
)

// SetDebug toggles the provenance lease table. Enabling (or re-enabling)
// resets the table and the ForeignPuts counter; slices leased while debug
// was off are treated as foreign if Put while it is on.
func SetDebug(on bool) {
	debugMu.Lock()
	if on {
		debugFloatLeases = make(map[*float32]struct{})
		debugUintLeases = make(map[*uint32]struct{})
		debugForeignPuts.Store(0)
	}
	debugOn.Store(on)
	debugMu.Unlock()
}

// DebugEnabled reports whether the provenance lease table is active.
func DebugEnabled() bool { return debugOn.Load() }

// ForeignPuts reports Puts of pool-classed slices that were not
// outstanding leases of this package — foreign allocations and double
// releases both — observed since the last SetDebug(true). Each one would
// have silently skewed the Outstanding counters with debug off.
func ForeignPuts() int64 { return debugForeignPuts.Load() }

// debugLease records a pooled lease under the debug table. The map
// variable is dereferenced under debugMu so a concurrent SetDebug swap is
// safe.
func debugLease[T any](leases *map[*T]struct{}, s []T) {
	debugMu.Lock()
	(*leases)[&s[0]] = struct{}{}
	debugMu.Unlock()
}

// debugRelease validates a Put under the debug table and reports whether
// the slice is a genuine outstanding lease; foreign (or doubly released)
// slices are counted and rejected.
func debugRelease[T any](leases *map[*T]struct{}, s []T) bool {
	key := &s[:1][0]
	debugMu.Lock()
	_, ok := (*leases)[key]
	if ok {
		delete(*leases, key)
	}
	debugMu.Unlock()
	if !ok {
		debugForeignPuts.Add(1)
	}
	return ok
}

// OutstandingFloats reports currently leased pool-classed []float32
// vectors (gets minus puts since process start).
func OutstandingFloats() int64 { return outFloats.Load() }

// OutstandingUints reports currently leased pool-classed []uint32 vectors.
func OutstandingUints() int64 { return outUints.Load() }

// numClasses bounds the pooled size classes: class i holds slices of
// capacity 1<<i, up to 1<<27 elements (512 MiB of float32s, matching the
// compression frame bound). Larger requests fall through to plain make.
const numClasses = 28

// Pools store *wrap values, and the empty wrap headers are themselves
// recycled through a second pool, so a steady-state Get/Put cycle performs
// zero allocations (a naive Put(&s) would allocate a slice header per
// release — exactly the per-upload garbage this package exists to remove).
type floatWrap struct{ s []float32 }

type uintWrap struct{ s []uint32 }

var (
	floatPools [numClasses]sync.Pool
	uintPools  [numClasses]sync.Pool
	floatWraps sync.Pool
	uintWraps  sync.Pool
)

// classFor returns the pool class for a requested length: the smallest
// power-of-two capacity that holds n. n must be positive.
func classFor(n int) int {
	return bits.Len(uint(n - 1))
}

// GetFloats leases a zeroed []float32 of length n from the pool (capacity
// is the next power of two). n <= 0 returns nil. The caller owns the slice
// until PutFloats.
func GetFloats(n int) []float32 {
	if n <= 0 {
		return nil
	}
	class := classFor(n)
	if class >= numClasses {
		return make([]float32, n)
	}
	outFloats.Add(1)
	if w, _ := floatPools[class].Get().(*floatWrap); w != nil {
		s := w.s[:n]
		w.s = nil
		floatWraps.Put(w)
		clear(s)
		if debugOn.Load() {
			debugLease(&debugFloatLeases, s)
		}
		return s
	}
	s := make([]float32, n, 1<<class)
	if debugOn.Load() {
		debugLease(&debugFloatLeases, s)
	}
	return s
}

// PutFloats returns a leased slice to its pool. Slices whose capacity is
// not an exact class size (allocated elsewhere, e.g. by a plain wire
// decode) are discarded to the GC, which keeps Put safe to call on any
// slice the caller owns exclusively.
func PutFloats(s []float32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := classFor(c)
	if class >= numClasses {
		return
	}
	if debugOn.Load() && !debugRelease(&debugFloatLeases, s) {
		return // quarantined: neither adopted nor counted
	}
	outFloats.Add(-1)
	w, _ := floatWraps.Get().(*floatWrap)
	if w == nil {
		w = new(floatWrap)
	}
	w.s = s[:c]
	floatPools[class].Put(w)
}

// GetUints leases a zeroed []uint32 of length n; see GetFloats.
func GetUints(n int) []uint32 {
	if n <= 0 {
		return nil
	}
	class := classFor(n)
	if class >= numClasses {
		return make([]uint32, n)
	}
	outUints.Add(1)
	if w, _ := uintPools[class].Get().(*uintWrap); w != nil {
		s := w.s[:n]
		w.s = nil
		uintWraps.Put(w)
		clear(s)
		if debugOn.Load() {
			debugLease(&debugUintLeases, s)
		}
		return s
	}
	s := make([]uint32, n, 1<<class)
	if debugOn.Load() {
		debugLease(&debugUintLeases, s)
	}
	return s
}

// PutUints returns a leased slice to its pool; see PutFloats.
func PutUints(s []uint32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := classFor(c)
	if class >= numClasses {
		return
	}
	if debugOn.Load() && !debugRelease(&debugUintLeases, s) {
		return // quarantined: neither adopted nor counted
	}
	outUints.Add(-1)
	w, _ := uintWraps.Get().(*uintWrap)
	if w == nil {
		w = new(uintWrap)
	}
	w.s = s[:c]
	uintPools[class].Put(w)
}
