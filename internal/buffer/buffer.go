// Package buffer implements PAPAYA's buffered model aggregation (Section
// 6.3): the component that accumulates weighted client updates until the
// aggregation goal K is reached, then releases a single aggregated update
// for the server optimizer.
//
// To support the 30x higher server-update throughput of AsyncFL, aggregation
// is sharded: incoming updates are added into one of several intermediate
// aggregates chosen by a caller-supplied shard hint (the paper hashes the
// aggregating thread's ID), so concurrent Adds contend only on their shard's
// lock. A release folds the shards together, normalizes by total weight,
// and resets the buffer.
//
// The same type serves SyncFL: a round is simply a buffer with goal equal to
// the round's aggregation goal and staleness zero.
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/vecf"
)

// Buffered is a goal-triggered weighted aggregation buffer. It is safe for
// concurrent Add calls.
type Buffered struct {
	numParams int
	goal      atomic.Int64
	shards    []shard
	count     atomic.Int64
	released  atomic.Int64 // number of releases, for stats
	drained   atomic.Int64 // updates aggregated by those calls, for stats

	releaseMu sync.Mutex // serializes releases against each other
}

type shard struct {
	mu     sync.Mutex
	sum    []float32
	weight float64
	maxW   float64
	n      int
	_      [32]byte // pad to reduce false sharing between adjacent shards
}

// New creates a buffer for updates of length numParams with the given
// aggregation goal and shard count. It panics on non-positive arguments.
func New(numParams, goal, shards int) *Buffered {
	if numParams <= 0 || goal <= 0 || shards <= 0 {
		panic("buffer: numParams, goal, and shards must be positive")
	}
	b := &Buffered{numParams: numParams, shards: make([]shard, shards)}
	b.goal.Store(int64(goal))
	for i := range b.shards {
		b.shards[i].sum = make([]float32, numParams)
	}
	return b
}

// Goal returns the aggregation goal K.
func (b *Buffered) Goal() int { return int(b.goal.Load()) }

// NumShards returns the number of intermediate aggregates. The parallel
// training engine runs one aggregation consumer per shard, so each shard's
// lock is uncontended and adds within a shard happen in a deterministic
// order.
func (b *Buffered) NumShards() int { return len(b.shards) }

// SetGoal changes the aggregation goal, so a task can be reconfigured at
// runtime (e.g. when switching between SyncFL and AsyncFL, Appendix E.3).
// The goal is atomic, making SetGoal safe against concurrent Adds — the
// production aggregator accumulates outside its task mutex, so a
// reconfiguration can race an in-flight upload.
func (b *Buffered) SetGoal(goal int) {
	if goal <= 0 {
		panic("buffer: goal must be positive")
	}
	b.goal.Store(int64(goal))
}

// Count returns the number of updates buffered since the last release.
func (b *Buffered) Count() int { return int(b.count.Load()) }

// Releases returns how many times the buffer has been released.
func (b *Buffered) Releases() int { return int(b.released.Load()) }

// Drained returns how many updates those releases aggregated in total.
func (b *Buffered) Drained() int { return int(b.drained.Load()) }

// Add accumulates one weighted client update. shardHint selects the
// intermediate aggregate (any value; it is reduced modulo the shard count).
// It returns true exactly once per goal-full: for the Add call that makes
// the buffered count reach the goal. The caller that receives true is
// responsible for releasing the buffer.
//
// Add panics if the update length is wrong or the weight is not positive,
// since silently dropping a client's contribution would corrupt training.
func (b *Buffered) Add(update []float32, weight float64, shardHint int) bool {
	if len(update) != b.numParams {
		panic(fmt.Sprintf("buffer: update length %d, want %d", len(update), b.numParams))
	}
	if weight <= 0 {
		panic("buffer: weight must be positive")
	}
	if shardHint < 0 {
		shardHint = -shardHint
	}
	s := &b.shards[shardHint%len(b.shards)]
	s.mu.Lock()
	vecf.AXPY(s.sum, float32(weight), update)
	s.weight += weight
	if weight > s.maxW {
		s.maxW = weight
	}
	s.n++
	s.mu.Unlock()
	return b.count.Add(1) == b.goal.Load()
}

// ReleaseInto folds all shards into the final weighted-mean update
// sum_i(w_i * u_i) / sum_i(w_i), written into dst (which it zeroes first,
// so callers on a hot path recycle the output vector), resets the buffer,
// and returns the total weight and the number of client updates it
// aggregates. It panics if dst has the wrong length or the buffer is
// empty: a release without a triggering Add signals a protocol bug.
func (b *Buffered) ReleaseInto(dst []float32) (totalWeight float64, n int) {
	stats := b.ReleaseIntoStats(dst)
	return stats.TotalWeight, stats.N
}

// ReleaseStats describes one release window: the weight mass folded into
// the released mean and the largest single contribution. The DP mechanism
// calibrates its noise from these (one client's influence on the weighted
// mean is bounded by MaxWeight/TotalWeight times the clip).
type ReleaseStats struct {
	// TotalWeight is the sum of the released updates' weights.
	TotalWeight float64
	// MaxWeight is the largest single update's weight in the window.
	MaxWeight float64
	// N is the number of client updates released.
	N int
}

// ReleaseIntoStats is ReleaseInto additionally reporting the release
// window's weight statistics, which downstream privacy accounting needs.
func (b *Buffered) ReleaseIntoStats(dst []float32) ReleaseStats {
	if len(dst) != b.numParams {
		panic(fmt.Sprintf("buffer: dst length %d, want %d", len(dst), b.numParams))
	}
	b.releaseMu.Lock()
	defer b.releaseMu.Unlock()

	var stats ReleaseStats
	update := dst
	vecf.Zero(update)
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		if s.n > 0 {
			vecf.Add(update, s.sum)
			stats.TotalWeight += s.weight
			if s.maxW > stats.MaxWeight {
				stats.MaxWeight = s.maxW
			}
			stats.N += s.n
			vecf.Zero(s.sum)
			s.weight = 0
			s.maxW = 0
			s.n = 0
		}
		s.mu.Unlock()
	}
	if stats.N == 0 {
		panic("buffer: Release on empty buffer")
	}
	b.count.Add(int64(-stats.N))
	b.released.Add(1)
	b.drained.Add(int64(stats.N))
	vecf.Scale(update, float32(1/stats.TotalWeight))
	return stats
}
