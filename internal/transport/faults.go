package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Faults is the injected-fault state of the networked fabric
// (streamcore.Fabric): crash markers, partitions, probabilistic loss, and
// fixed latency, checked in the in-memory Network's order so fault parity
// is structural rather than re-implemented per backend. It is safe for
// concurrent use. The zero value is unusable; call InitFaults.
type Faults struct {
	mu       sync.RWMutex
	crashed  map[string]bool
	cuts     map[[2]string]bool
	lossProb float64
	latency  time.Duration

	rndMu sync.Mutex
	rnd   *rand.Rand
}

// InitFaults readies the table with the given loss-RNG seed.
func (f *Faults) InitFaults(seed int64) {
	f.crashed = make(map[string]bool)
	f.cuts = make(map[[2]string]bool)
	f.rnd = rand.New(rand.NewSource(seed))
}

// Crash marks a node as crashed: calls to and from it fail with
// ErrCrashed until ClearCrash (a re-registration) clears the marker.
// Per-fabric, like every injected fault.
func (f *Faults) Crash(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed[name] = true
}

// ClearCrash removes a node's crash marker (a restarted process).
func (f *Faults) ClearCrash(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.crashed, name)
}

// Crashed reports whether a node carries the crash marker — the
// server-side half of the check (a frame addressed to a crashed node).
func (f *Faults) Crashed(name string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.crashed[name]
}

// Partition cuts connectivity between a and b (both directions).
func (f *Faults) Partition(a, b string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts[faultCutKey(a, b)] = true
}

// Heal restores connectivity between a and b.
func (f *Faults) Heal(a, b string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cuts, faultCutKey(a, b))
}

// Cut reports whether a and b are partitioned.
func (f *Faults) Cut(a, b string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.cuts[faultCutKey(a, b)]
}

// SetLoss sets the independent per-call drop probability in [0, 1).
func (f *Faults) SetLoss(p float64) {
	if p < 0 || p >= 1 {
		panic("transport: loss probability must be in [0, 1)")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lossProb = p
}

// SetLatency sets a fixed one-way call latency added on top of the real
// network's.
func (f *Faults) SetLatency(d time.Duration) {
	if d < 0 {
		panic("transport: negative latency")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// CheckCall applies the client-side fault checks for one call, in the
// in-memory Network's order (crashed callee, crashed caller, partition,
// loss, then latency). The caller has already resolved the target
// (ErrUnknownNode precedes these checks).
func (f *Faults) CheckCall(from, to, method string) error {
	f.mu.RLock()
	crashedTo := f.crashed[to]
	crashedFrom := f.crashed[from]
	cut := f.cuts[faultCutKey(from, to)]
	loss := f.lossProb
	latency := f.latency
	f.mu.RUnlock()

	if crashedTo {
		return fmt.Errorf("%w: %s", ErrCrashed, to)
	}
	if crashedFrom {
		return fmt.Errorf("%w: %s (sender)", ErrCrashed, from)
	}
	if cut {
		return fmt.Errorf("%w: %s <-> %s", ErrPartitioned, from, to)
	}
	if loss > 0 {
		f.rndMu.Lock()
		drop := f.rnd.Float64() < loss
		f.rndMu.Unlock()
		if drop {
			return fmt.Errorf("%w: %s -> %s %s", ErrDropped, from, to, method)
		}
	}
	if latency > 0 {
		time.Sleep(latency)
	}
	return nil
}

func faultCutKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}
