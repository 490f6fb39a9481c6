// Package dp implements the differential-privacy extension the paper's
// conclusion names as future work ("PAPAYA can be extended with features to
// enable differential privacy"): central DP-FedAvg-style training in which
// each client update is L2-clipped to bound its sensitivity and calibrated
// Gaussian noise is added to every released aggregate.
//
// The accountant uses basic (linear) composition of zCDP converted from the
// Gaussian mechanism: each release with noise multiplier z (noise stddev =
// z * sensitivity on the released vector) costs rho = 1/(2 z^2) zCDP; after
// T releases the (epsilon, delta) guarantee is
// epsilon = rho*T + 2*sqrt(rho*T*ln(1/delta)).
// This is deliberately the simplest sound accountant; swapping in a tighter
// one (RDP moments) changes only this file.
//
// Sensitivity on a weighted mean: the aggregation buffer releases
// sum_i(w_i * u_i) / W with W = sum_i(w_i), so replacing one client's
// clipped update (|u| <= Clip) moves the release by at most
// max_i(w_i) * Clip / W per the triangle inequality. NoiseRelease
// calibrates sigma = z * Clip * MaxWeight / TotalWeight from the release's
// actual weight statistics; for the uniform-weight case (w_i = 1, W = k)
// this reduces to the plain-mean z * Clip / k.
package dp

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecf"
)

// Config parameterizes central differential privacy for federated training.
type Config struct {
	// Clip is the L2 bound applied to every client update before
	// aggregation; this is the mechanism's sensitivity.
	Clip float64
	// NoiseMultiplier z scales the Gaussian noise: the noise added to a
	// released aggregate has standard deviation z times the release's
	// sensitivity per coordinate.
	NoiseMultiplier float64
	// Delta is the target delta for reporting epsilon.
	Delta float64
	// Seed drives the noise stream when nonzero, making runs reproducible
	// (simulation, scenarios, tests). Zero — the networked default — seeds
	// the stream from crypto/rand: a task spec travels to every
	// participating client, so a spec-carried seed would make the noise
	// predictable to the very parties it is supposed to protect against.
	Seed uint64
	// EpsilonBudget caps the cumulative epsilon at the configured Delta;
	// once one more release would exceed it the mechanism refuses to
	// release and the task completes with status "budget_exhausted".
	// Zero means unlimited (accounting only).
	EpsilonBudget float64
	// Local additionally applies the mechanism on-device: clients clip
	// their own delta and add Gaussian noise with per-coordinate stddev
	// z*Clip before upload, so the server never sees the raw update
	// (local DP, a strictly stronger threat model at a utility cost).
	Local bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Clip <= 0:
		return fmt.Errorf("dp: Clip must be positive")
	case c.NoiseMultiplier <= 0:
		return fmt.Errorf("dp: NoiseMultiplier must be positive")
	case c.Delta <= 0 || c.Delta >= 1:
		return fmt.Errorf("dp: Delta must be in (0,1)")
	case c.EpsilonBudget < 0:
		return fmt.Errorf("dp: EpsilonBudget must be >= 0 (0 = unlimited)")
	}
	return nil
}

// Release carries the weight statistics of one aggregation-buffer release,
// which determine the sensitivity of the released weighted mean.
type Release struct {
	// N is the number of clipped client updates in the release.
	N int
	// TotalWeight is the sum of the updates' aggregation weights.
	TotalWeight float64
	// MaxWeight is the largest single update's aggregation weight.
	MaxWeight float64
}

// Mechanism clips client updates and noises aggregates, tracking the
// cumulative privacy cost. ClipUpdate is stateless and safe to call
// concurrently; the noise/accounting methods are not safe for concurrent
// use — the aggregator serializes releases under its exactly-one-finisher
// invariant.
type Mechanism struct {
	cfg      Config
	noise    *rng.RNG
	releases int
}

// New creates a mechanism. It panics on invalid configuration. A zero
// Config.Seed draws the noise seed from crypto/rand (see Config.Seed).
func New(cfg Config) *Mechanism {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cryptoSeed()
	}
	return &Mechanism{cfg: cfg, noise: rng.New(seed)}
}

// cryptoSeed derives an unpredictable RNG seed from the OS entropy source.
func cryptoSeed() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("dp: reading crypto/rand seed: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// ClipUpdate bounds a client update's L2 norm to the configured clip in
// place and returns the pre-clip norm. Every update must pass through here
// before entering the aggregation buffer, otherwise the sensitivity bound —
// and therefore the privacy guarantee — is void.
func (m *Mechanism) ClipUpdate(update []float32) float64 {
	return vecf.ClipNorm(update, m.cfg.Clip)
}

// Clip returns the configured L2 clip bound.
func (m *Mechanism) Clip() float64 { return m.cfg.Clip }

// LocalEnabled reports whether the configuration asks clients to apply the
// mechanism on-device as well.
func (m *Mechanism) LocalEnabled() bool { return m.cfg.Local }

// LocalSigma returns the per-coordinate noise stddev a client applies to
// its own clipped delta under local DP: z * Clip (sensitivity of a single
// update).
func (m *Mechanism) LocalSigma() float64 {
	return m.cfg.NoiseMultiplier * m.cfg.Clip
}

// Sigma returns the per-coordinate Gaussian stddev calibrated for a
// release: z * Clip * MaxWeight / TotalWeight, the noise multiplier times
// the weighted mean's sensitivity. Exposed so tests can pin the
// calibration per aggregation rule.
func (m *Mechanism) Sigma(rel Release) float64 {
	return m.cfg.NoiseMultiplier * m.cfg.Clip * rel.MaxWeight / rel.TotalWeight
}

// NoiseRelease adds Gaussian noise calibrated to the release's sensitivity
// to the released weighted mean in place, then accounts for the release.
// It panics on malformed release statistics, which signal an aggregation
// bug rather than a recoverable condition.
func (m *Mechanism) NoiseRelease(aggregated []float32, rel Release) {
	switch {
	case rel.N < 1:
		panic("dp: release N must be >= 1")
	case rel.TotalWeight <= 0 || rel.MaxWeight <= 0:
		panic("dp: release weights must be positive")
	case rel.MaxWeight > rel.TotalWeight:
		panic("dp: MaxWeight exceeds TotalWeight")
	}
	sigma := m.Sigma(rel)
	for i := range aggregated {
		aggregated[i] += float32(sigma * m.noise.NormFloat64())
	}
	m.releases++
}

// Releases returns the number of noised aggregates so far.
func (m *Mechanism) Releases() int { return m.releases }

// rho returns the per-release zCDP cost of the Gaussian mechanism.
func (m *Mechanism) rho() float64 {
	z := m.cfg.NoiseMultiplier
	return 1 / (2 * z * z)
}

// Epsilon returns the cumulative (epsilon, delta) guarantee after all
// releases so far, via zCDP composition: eps = rho*T + 2*sqrt(rho*T*ln(1/d)).
func (m *Mechanism) Epsilon() float64 {
	return m.EpsilonAfter(m.releases)
}

// Delta returns the configured delta.
func (m *Mechanism) Delta() float64 { return m.cfg.Delta }

// EpsilonAfter predicts the guarantee after t releases, for budgeting runs
// ahead of time.
func (m *Mechanism) EpsilonAfter(t int) float64 {
	if t <= 0 {
		return 0
	}
	rhoT := m.rho() * float64(t)
	return rhoT + 2*math.Sqrt(rhoT*math.Log(1/m.cfg.Delta))
}

// Budget returns the configured epsilon cap (0 = unlimited).
func (m *Mechanism) Budget() float64 { return m.cfg.EpsilonBudget }

// CanRelease reports whether one more release still fits the configured
// epsilon budget. With no budget it always returns true. The aggregator
// checks this BEFORE noising: a refused release leaves the accountant
// untouched and the task completes with status "budget_exhausted" instead
// of silently overspending the guarantee.
func (m *Mechanism) CanRelease() bool {
	if m.cfg.EpsilonBudget <= 0 {
		return true
	}
	return m.EpsilonAfter(m.releases+1) <= m.cfg.EpsilonBudget
}
