package nn

import (
	"fmt"
	"sync"

	"repro/internal/rng"
	"repro/internal/vecf"
)

// SGDConfig configures client-side local training. The paper's setup
// (Section 7.1) is one local epoch of SGD with batch size 32.
type SGDConfig struct {
	// LearningRate is the client step size.
	LearningRate float64
	// Epochs is the number of passes over the client's examples.
	Epochs int
	// BatchSize is the minibatch size; the final batch of an epoch may be
	// smaller.
	BatchSize int
	// ClipNorm caps the per-batch gradient norm; 0 disables clipping.
	ClipNorm float64
	// ProxMu, when positive, adds FedProx's proximal term (Li et al. 2020)
	// to every batch gradient: grad += ProxMu * (params - anchor), where
	// anchor is the parameter vector local training started from. The pull
	// toward the downloaded model bounds client drift on non-IID data.
	ProxMu float64
}

// DefaultSGDConfig matches the paper's client configuration.
func DefaultSGDConfig() SGDConfig {
	return SGDConfig{LearningRate: 0.5, Epochs: 1, BatchSize: 32, ClipNorm: 5}
}

// Validate reports configuration errors.
func (c SGDConfig) Validate() error {
	switch {
	case c.LearningRate <= 0:
		return fmt.Errorf("nn: LearningRate must be positive")
	case c.Epochs < 1:
		return fmt.Errorf("nn: Epochs must be >= 1")
	case c.BatchSize < 1:
		return fmt.Errorf("nn: BatchSize must be >= 1")
	case c.ClipNorm < 0:
		return fmt.Errorf("nn: ClipNorm must be >= 0")
	case c.ProxMu < 0:
		return fmt.Errorf("nn: ProxMu must be >= 0")
	}
	return nil
}

// SGD trains params in place on the client's sequences and returns the mean
// per-token loss observed during the final epoch. The example order is
// shuffled per epoch with the caller's RNG, so local training is
// deterministic given the RNG state.
func SGD(m Model, params []float32, seqs [][]int, cfg SGDConfig, r *rng.RNG) float64 {
	grad := gradPool.Get().(*[]float32)
	defer gradPool.Put(grad)
	*grad = grow(*grad, m.NumParams())
	return sgdScratch(m, params, *grad, seqs, cfg, r)
}

// gradPool holds SGD's gradient scratch, shared by every model as
// Bilinear's scratchPool is. A buffer grows to fit and is kept, so SGD
// needs no model-sized allocation in the steady state while its callers
// (client.SGDExecutor, one per device) stay stateless.
var gradPool = sync.Pool{New: func() any { return new([]float32) }}

// sgdScratch is SGD with a caller-provided gradient scratch buffer, the
// allocation-free core shared by SGD and Trainer.LocalUpdateInto.
func sgdScratch(m Model, params, grad []float32, seqs [][]int, cfg SGDConfig, r *rng.RNG) float64 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	checkParams(m, params)
	checkParams(m, grad)
	if len(seqs) == 0 {
		return 0
	}
	// FedProx anchors the proximal pull at the parameters training started
	// from (the downloaded server model), not the moving iterate.
	var anchor []float32
	if cfg.ProxMu > 0 {
		anchor = vecf.Clone(params)
	}
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	batch := make([][]int, 0, cfg.BatchSize)
	var lastEpochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		var batches int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch = batch[:0]
			for _, idx := range order[start:end] {
				batch = append(batch, seqs[idx])
			}
			vecf.Zero(grad)
			loss := m.Gradient(params, batch, grad)
			if anchor != nil {
				// The proximal term is part of the local objective, so it
				// is clipped along with the data gradient.
				vecf.AXPY(grad, float32(cfg.ProxMu), params)
				vecf.AXPY(grad, -float32(cfg.ProxMu), anchor)
			}
			if cfg.ClipNorm > 0 {
				vecf.ClipNorm(grad, cfg.ClipNorm)
			}
			vecf.AXPY(params, -float32(cfg.LearningRate), grad)
			lossSum += loss
			batches++
		}
		if batches > 0 {
			lastEpochLoss = lossSum / float64(batches)
		}
	}
	return lastEpochLoss
}

// LocalUpdate runs SGD starting from a copy of initial and returns the model
// delta (trained - initial), which is what a PAPAYA client uploads, along
// with the final-epoch training loss. initial is not modified.
func LocalUpdate(m Model, initial []float32, seqs [][]int, cfg SGDConfig, r *rng.RNG) (delta []float32, loss float64) {
	params := vecf.Clone(initial)
	loss = SGD(m, params, seqs, cfg, r)
	vecf.Sub(params, initial)
	return params, loss
}
