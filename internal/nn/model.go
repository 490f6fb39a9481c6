// Package nn implements the pure-Go neural language models that play the
// role of the paper's production LSTM next-word predictor, together with the
// client-side SGD trainer (Section 7.1: one local epoch, batch size 32).
//
// Two models are provided. Bilinear is a log-bilinear next-token model
// (embedding + softmax) cheap enough that the large experiment sweeps can
// run hundreds of thousands of client updates on one core. LSTM is a full
// single-layer LSTM language model with truncated backpropagation through
// time, used in the examples and the smaller-scale runs, mirroring the
// paper's architecture choice (Kim et al. 2015). Both operate on flat
// []float32 parameter vectors so the aggregation and SecAgg layers can treat
// every model identically.
package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Model is a trainable next-token language model over a fixed vocabulary.
// Implementations are stateless: all learnable state lives in the params
// vector, which is what federated aggregation shuffles around.
type Model interface {
	// NumParams returns the length of the parameter vector.
	NumParams() int
	// VocabSize returns the token vocabulary size.
	VocabSize() int
	// InitParams returns a freshly initialized parameter vector.
	InitParams(r *rng.RNG) []float32
	// Loss returns the mean per-token negative log-likelihood of the
	// sequences under params. Sequences shorter than 2 tokens contribute
	// nothing.
	Loss(params []float32, seqs [][]int) float64
	// Gradient accumulates dLoss/dparams into grad (which must be zeroed by
	// the caller if a fresh gradient is wanted) and returns the mean
	// per-token loss. The gradient is averaged per token, matching Loss.
	Gradient(params []float32, seqs [][]int, grad []float32) float64
}

// Perplexity converts a mean per-token negative log-likelihood (nats) into
// perplexity, the metric Table 1 reports.
func Perplexity(loss float64) float64 {
	if loss > 60 {
		// exp would overflow to +Inf anyway; clamp for readable reports.
		loss = 60
	}
	return math.Exp(loss)
}

func checkParams(m Model, params []float32) {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("nn: params length %d, model wants %d", len(params), m.NumParams()))
	}
}

func checkSeq(m Model, seq []int) {
	v := m.VocabSize()
	for _, tok := range seq {
		if tok < 0 || tok >= v {
			panic(fmt.Sprintf("nn: token %d out of vocab %d", tok, v))
		}
	}
}
