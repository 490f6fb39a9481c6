// Package round is the one release stage of PAPAYA's buffered aggregation
// (Section 6.3), which the networked aggregator (internal/server) and the
// simulator (internal/core) both run. A Stage holds a task's model side —
// aggregation buffer, rule, server optimizer, central-DP mechanism and
// release scratch — and alone knows a release's order: budget check,
// drain, noise, Transform, step.
//
// Each engine serializes releases (the aggregator under its step lock, the
// simulator on its event loop). Buf.Add, Rule.Weight and DP.ClipUpdate are
// safe on the accept path, concurrently with each other and a release.
package round

import (
	"repro/internal/buffer"
	"repro/internal/dp"
	"repro/internal/fedopt"
)

// Stage is one task's release stage. The accept path weights an update
// with Rule and adds it to Buf.
type Stage struct {
	Buf  *buffer.Buffered
	Rule fedopt.Aggregation
	// DP is nil without DP. Every update passes its ClipUpdate before
	// Buf.Add; its accounting moves only inside Release.
	DP *dp.Mechanism

	opt     fedopt.Optimizer
	scratch []float32 // receives every release: nothing model-sized is allocated
}

// New builds a stage for numParams-long updates, with a DP mechanism when
// dpc is not nil.
func New(numParams, goal, shards int, rule fedopt.Aggregation, opt fedopt.Optimizer, dpc *dp.Config) *Stage {
	s := &Stage{Buf: buffer.New(numParams, goal, shards), Rule: rule, opt: opt,
		scratch: make([]float32, numParams)}
	if dpc != nil {
		s.DP = dp.New(*dpc)
	}
	return s
}

// Release runs one release onto params, in this order:
//
//  1. The budget check. If one more release would exceed the epsilon
//     budget it returns false and drains nothing: releasing the buffered
//     updates un-noised would void the guarantee.
//  2. The drain into the scratch, then drained (nil for none): later adds
//     land in the next release.
//  3. The noise, calibrated from the release's weight statistics: staleness
//     weights make the mean's sensitivity MaxWeight*Clip/TotalWeight.
//  4. The rule's Transform and the optimizer's Step, which only
//     post-process the noised mean.
func (s *Stage) Release(params []float32, drained func()) bool {
	if s.DP != nil && !s.DP.CanRelease() {
		return false
	}
	stats := s.Buf.ReleaseIntoStats(s.scratch)
	if drained != nil {
		drained()
	}
	if s.DP != nil {
		s.DP.NoiseRelease(s.scratch, dp.Release{N: stats.N, TotalWeight: stats.TotalWeight, MaxWeight: stats.MaxWeight})
	}
	s.step(params)
	return true
}

// ReleaseFrom is a release whose mean is drained outside the buffer, as
// SecAgg's unmask is: fill writes the mean into the scratch, then Release's
// Transform and Step follow. A fill error releases nothing. It panics on a
// DP stage, which has no un-noised release.
func (s *Stage) ReleaseFrom(params []float32, fill func(mean []float32) error) error {
	if s.DP != nil {
		panic("round: a DP stage releases only through Release")
	}
	if err := fill(s.scratch); err != nil {
		return err
	}
	s.step(params)
	return nil
}

func (s *Stage) step(params []float32) {
	s.Rule.Transform(s.scratch)
	s.opt.Step(params, s.scratch)
}
