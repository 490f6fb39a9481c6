package nn

import (
	"math"
	"sync"

	"repro/internal/rng"
	"repro/internal/vecf"
)

// Bilinear is a log-bilinear next-token model: the previous token's
// embedding is projected through an output matrix to produce logits.
//
//	h_t      = E[x_t]                (embedding lookup, dim d)
//	logits_t = U h_t + b             (V x d output matrix, V bias)
//	P(x_{t+1} | x_t) = softmax(logits_t)
//
// Parameter layout (flat):
//
//	[0, V*d)        E, row-major V x d
//	[V*d, 2*V*d)    U, row-major V x d
//	[2*V*d, 2*V*d+V) b
type Bilinear struct {
	V, D int
}

// NewBilinear returns a log-bilinear model with vocabulary v and embedding
// dimension d. It panics on non-positive sizes.
func NewBilinear(v, d int) *Bilinear {
	if v < 2 || d < 1 {
		panic("nn: NewBilinear requires v >= 2 and d >= 1")
	}
	return &Bilinear{V: v, D: d}
}

// NumParams implements Model.
func (m *Bilinear) NumParams() int { return 2*m.V*m.D + m.V }

// VocabSize implements Model.
func (m *Bilinear) VocabSize() int { return m.V }

// InitParams implements Model with scaled Gaussian initialization.
func (m *Bilinear) InitParams(r *rng.RNG) []float32 {
	p := make([]float32, m.NumParams())
	scale := 1 / math.Sqrt(float64(m.D))
	for i := 0; i < 2*m.V*m.D; i++ {
		p[i] = float32(r.NormFloat64() * scale)
	}
	// biases start at zero
	return p
}

func (m *Bilinear) slices(params []float32) (e, u, b []float32) {
	vd := m.V * m.D
	return params[:vd], params[vd : 2*vd], params[2*vd:]
}

// Loss implements Model.
func (m *Bilinear) Loss(params []float32, seqs [][]int) float64 {
	checkParams(m, params)
	s := getScratch(m, seqs)
	defer scratchPool.Put(s)
	return m.pass(params, s, nil)
}

// Gradient implements Model.
//
// The model conditions each prediction on the previous token alone, so the
// batch enters the loss and the gradient only through its bigram counts:
// every pair (x, y) with the same context x shares one embedding row, one
// set of logits and one softmax p_x. Summed over x's n_x pairs, the logit
// gradient is n_x*p_x - hist_x, where hist_x counts x's next tokens. So the
// pairs are grouped by context and each distinct context costs one forward
// and one backward pass, not one per token. The result equals the per-token
// sum up to float32 summation order.
func (m *Bilinear) Gradient(params []float32, seqs [][]int, grad []float32) float64 {
	checkParams(m, params)
	checkParams(m, grad)
	s := getScratch(m, seqs)
	defer scratchPool.Put(s)
	return m.pass(params, s, grad)
}

// pass is the model's one pass over the distinct contexts grouped in s, in
// increasing order and four at a time. For each context x it computes
// logits = U E[x] + b and their softmax, and adds the negative
// log-likelihood of each of x's next tokens to the total. If grad is not
// nil it then accumulates the gradient of the mean loss into grad. It
// returns the mean per-token loss, or 0 when s holds no pairs.
//
// A block of four contexts runs on vecf's 4-wide kernels, a last block of
// fewer on the 1-wide ones. Both sum every output element in the same
// order as a pass of one context at a time, so the result does not depend
// on how the contexts fall into blocks.
func (m *Bilinear) pass(params []float32, s *bilinearScratch, grad []float32) float64 {
	if s.count == 0 {
		return 0
	}
	e, u, b := m.slices(params)
	var ge, gu, gb []float32
	if grad != nil {
		ge, gu, gb = m.slices(grad)
	}
	inv := float32(1 / float64(s.count))
	var h [4][]float32
	var total float64
	for ctx := s.ctx; len(ctx) > 0; {
		blk := ctx[:min(len(ctx), 4)]
		ctx = ctx[len(blk):]
		for k, x := range blk {
			h[k] = e[int(x)*m.D : int(x+1)*m.D]
		}
		if len(blk) == 4 {
			vecf.MatVec4(s.logits, u, m.V, m.D, h)
		} else {
			for k := range blk {
				vecf.MatVec(s.logits[k], u, m.V, m.D, h[k])
			}
		}
		for k, x := range blk {
			logits := s.logits[k]
			vecf.Add(logits, b)
			logZ := vecf.Softmax(s.probs, logits)
			next := s.next[s.start[x]:s.start[x+1]]
			for _, y := range next {
				total += logZ - float64(logits[y])
			}
			if grad == nil {
				continue
			}
			// dL/dlogits summed over x's pairs, n_x*probs - hist_x,
			// written over the logits.
			nx := float32(len(next))
			for i, p := range s.probs {
				logits[i] = p * nx
			}
			for _, y := range next {
				logits[y] -= 1
			}
			vecf.AXPY(gb, inv, logits)
		}
		if grad == nil {
			continue
		}
		// U's gradient is the outer product of dlogits and h; h's is
		// U^T dlogits, accumulated into the embedding row.
		if len(blk) == 4 {
			vecf.OuterAccumMatTVec4(gu, u, m.V, m.D, inv, s.logits, h, s.dh)
		} else {
			for k := range blk {
				vecf.OuterAccum(gu, m.V, m.D, inv, s.logits[k], h[k])
				vecf.MatTVec(s.dh[k], u, m.V, m.D, s.logits[k])
			}
		}
		for k, x := range blk {
			vecf.AXPY(ge[int(x)*m.D:int(x+1)*m.D], inv, s.dh[k])
		}
	}
	return total / float64(s.count)
}

// bilinearScratch is one call's working memory: the (context, next) pairs
// of a batch counting-sorted by context, so that context x's next tokens
// are next[start[x]:start[x+1]], the distinct contexts in increasing
// order, and the vectors of one block of four contexts: their logits
// (overwritten by dlogits), one softmax at a time, and their h gradients.
type bilinearScratch struct {
	count            int
	start, next, ctx []int32
	logits, dh       [4][]float32
	probs            []float32
}

// scratchPool is shared by every Bilinear: one model value serves all of a
// run's trainers and executors, so per-model scratch would need a lock.
// Buffers grow to fit and are kept, so a steady-state call allocates
// nothing.
var scratchPool = sync.Pool{New: func() any { return new(bilinearScratch) }}

// getScratch validates every sequence, then takes a scratch from the pool
// and groups seqs' pairs into it. Validating first means an out-of-vocab
// token panics before any caller state is touched.
func getScratch(m *Bilinear, seqs [][]int) *bilinearScratch {
	count := 0
	for _, seq := range seqs {
		checkSeq(m, seq)
		if len(seq) > 1 {
			count += len(seq) - 1
		}
	}
	s := scratchPool.Get().(*bilinearScratch)
	s.count = count
	s.start = grow(s.start, m.V+1)
	s.next = grow(s.next, count)
	for k := range s.logits {
		s.logits[k] = grow(s.logits[k], m.V)
		s.dh[k] = grow(s.dh[k], m.D)
	}
	s.probs = grow(s.probs, m.V)
	// Counting sort by context: count each context at start[x+1], prefix
	// sum so start[x] is x's offset, fill using start[x] as x's cursor
	// (which leaves it at x's end, the old start[x+1]), then shift back.
	clear(s.start)
	for _, seq := range seqs {
		for t := 0; t+1 < len(seq); t++ {
			s.start[seq[t]+1]++
		}
	}
	for x := 1; x <= m.V; x++ {
		s.start[x] += s.start[x-1]
	}
	for _, seq := range seqs {
		for t := 0; t+1 < len(seq); t++ {
			x := seq[t]
			s.next[s.start[x]] = int32(seq[t+1])
			s.start[x]++
		}
	}
	copy(s.start[1:], s.start[:m.V])
	s.start[0] = 0
	s.ctx = s.ctx[:0]
	for x := int32(0); x < int32(m.V); x++ {
		if s.start[x+1] > s.start[x] {
			s.ctx = append(s.ctx, x)
		}
	}
	return s
}

// grow returns buf resliced to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

var _ Model = (*Bilinear)(nil)
