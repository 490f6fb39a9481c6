// Package placement implements rendezvous (highest-random-weight) hashing
// for consistent task->aggregator placement (Section 6.3). Every party that
// knows the live aggregator set computes the same owner for the same key
// with no shared state and no coordination:
// the owner of key k is the node n maximizing a deterministic hash of
// (n, k). The property that matters for failover storms (Appendix E.4) is
// minimal disruption: when a node leaves, only the keys it owned move
// (each to its second-ranked node), and when a node joins, only the keys
// it now wins move to it — at most ~1/N of the keyspace either way,
// unlike modulo placement where nearly everything reshuffles.
//
// The hash must be identical across processes and runs, so it is a
// fixed FNV-1a over node then key, finished with a splitmix64-style
// avalanche so near-identical node names ("agg-0".."agg-7") still produce
// independent weights per key.
package placement

import "sort"

// FNV-1a 64-bit parameters; fixed so every process hashes identically.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// weight is the rendezvous score of node for key: a deterministic 64-bit
// hash of (node, NUL, key), avalanche-finished.
func weight(key, node string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	h *= prime64 // NUL separator: "ab"+"c" and "a"+"bc" hash differently
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// splitmix64 finalizer: FNV alone avalanches trailing bytes poorly, and
	// node names differ only in their last characters.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the rendezvous owner of key among nodes: the node with the
// highest (weight, name) pair, so ties — astronomically unlikely but
// possible — break deterministically. It returns "" when nodes is empty.
func Owner(key string, nodes []string) string {
	best, bestW := "", uint64(0)
	for _, n := range nodes {
		w := weight(key, n)
		if best == "" || w > bestW || (w == bestW && n > best) {
			best, bestW = n, w
		}
	}
	return best
}

// Rank returns nodes ordered by descending rendezvous weight for key: the
// owner first, then the node every key would move to if the owner left,
// and so on — the failover order of Appendix E.4 made explicit. The input
// slice is not modified.
func Rank(key string, nodes []string) []string {
	out := append([]string(nil), nodes...)
	sort.Slice(out, func(i, j int) bool {
		wi, wj := weight(key, out[i]), weight(key, out[j])
		if wi != wj {
			return wi > wj
		}
		return out[i] > out[j]
	})
	return out
}
