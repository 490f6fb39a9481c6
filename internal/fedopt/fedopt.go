// Package fedopt implements the server-side optimizers and staleness
// weighting used by PAPAYA.
//
// In both SyncFL and AsyncFL the server treats the (weighted mean) client
// model delta as a pseudo-gradient and feeds it to a server optimizer
// (Reddi et al. 2020, "Adaptive Federated Optimization"). The paper uses
// FedAdam with Adam's default learning rate and a tuned first-moment
// parameter; FedSGD (plain averaging) and FedAvgM (server momentum) are
// provided as baselines and for ablations.
//
// Staleness weighting follows FedBuff (Nguyen et al. 2021, Appendix E.2):
// an update with staleness s is down-weighted by 1/sqrt(1+s).
package fedopt

import (
	"fmt"
	"math"

	"repro/internal/vecf"
)

// Optimizer applies aggregated client updates to the server model.
// Implementations keep internal state (moments) sized to the parameter
// vector; Step panics if the sizes disagree.
type Optimizer interface {
	// Step applies the aggregated update (mean client delta, pointing in
	// the direction of descent) to params in place.
	Step(params, update []float32)
	// Name identifies the optimizer in experiment reports.
	Name() string
	// Reset clears internal state (moments).
	Reset()
}

// FedSGD is plain server SGD on the pseudo-gradient: params += lr * update.
// With lr=1 this is exactly FedAvg's server behaviour.
type FedSGD struct {
	LR float64
}

// NewFedSGD returns a FedSGD optimizer. lr must be positive.
func NewFedSGD(lr float64) *FedSGD {
	if lr <= 0 {
		panic("fedopt: FedSGD lr must be positive")
	}
	return &FedSGD{LR: lr}
}

// Step implements Optimizer.
func (o *FedSGD) Step(params, update []float32) {
	checkLen(params, update)
	vecf.AXPY(params, float32(o.LR), update)
}

// Name implements Optimizer.
func (o *FedSGD) Name() string { return fmt.Sprintf("FedSGD(lr=%g)", o.LR) }

// Reset implements Optimizer.
func (o *FedSGD) Reset() {}

// FedAvgM adds server momentum: m = beta*m + update; params += lr*m.
type FedAvgM struct {
	LR, Beta float64
	m        []float32
}

// NewFedAvgM returns a FedAvgM optimizer.
func NewFedAvgM(lr, beta float64) *FedAvgM {
	if lr <= 0 || beta < 0 || beta >= 1 {
		panic("fedopt: FedAvgM requires lr > 0 and beta in [0,1)")
	}
	return &FedAvgM{LR: lr, Beta: beta}
}

// Step implements Optimizer.
func (o *FedAvgM) Step(params, update []float32) {
	checkLen(params, update)
	if o.m == nil {
		o.m = make([]float32, len(params))
	}
	checkLen(params, o.m)
	vecf.Scale(o.m, float32(o.Beta))
	vecf.Add(o.m, update)
	vecf.AXPY(params, float32(o.LR), o.m)
}

// Name implements Optimizer.
func (o *FedAvgM) Name() string { return fmt.Sprintf("FedAvgM(lr=%g,b=%g)", o.LR, o.Beta) }

// Reset implements Optimizer.
func (o *FedAvgM) Reset() { o.m = nil }

// FedAdam is the paper's server optimizer (Reddi et al. 2020):
//
//	m = b1*m + (1-b1)*u
//	v = b2*v + (1-b2)*u^2
//	params += lr * m / (sqrt(v) + eps)
//
// Following the paper and the FedBuff reference, no bias correction is
// applied (tau = eps acts as the adaptivity floor).
type FedAdam struct {
	LR, Beta1, Beta2, Eps float64
	m, v                  []float32
}

// NewFedAdam returns a FedAdam optimizer with explicit hyperparameters.
func NewFedAdam(lr, beta1, beta2, eps float64) *FedAdam {
	if lr <= 0 || beta1 < 0 || beta1 >= 1 || beta2 < 0 || beta2 >= 1 || eps <= 0 {
		panic("fedopt: FedAdam hyperparameters out of range")
	}
	return &FedAdam{LR: lr, Beta1: beta1, Beta2: beta2, Eps: eps}
}

// DefaultFedAdam mirrors the paper's methodology: FedAdam with the first
// moment and server learning rate tuned in simulation (Section 7.1). The
// values here are the ones the repository's own calibration sweep selected
// for the synthetic-corpus models.
func DefaultFedAdam() *FedAdam { return NewFedAdam(0.02, 0.9, 0.99, 1e-3) }

// Step implements Optimizer.
func (o *FedAdam) Step(params, update []float32) {
	checkLen(params, update)
	if o.m == nil {
		o.m = make([]float32, len(params))
		o.v = make([]float32, len(params))
	}
	checkLen(params, o.m)
	b1, b2 := float32(o.Beta1), float32(o.Beta2)
	lr, eps := float32(o.LR), float32(o.Eps)
	for i, u := range update {
		o.m[i] = b1*o.m[i] + (1-b1)*u
		o.v[i] = b2*o.v[i] + (1-b2)*u*u
		params[i] += lr * o.m[i] / (sqrt32(o.v[i]) + eps)
	}
}

// Name implements Optimizer.
func (o *FedAdam) Name() string {
	return fmt.Sprintf("FedAdam(lr=%g,b1=%g,b2=%g)", o.LR, o.Beta1, o.Beta2)
}

// Reset implements Optimizer.
func (o *FedAdam) Reset() { o.m, o.v = nil, nil }

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

func checkLen(a, b []float32) {
	if len(a) != len(b) {
		panic("fedopt: parameter length mismatch")
	}
}
