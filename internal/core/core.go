// Package core implements PAPAYA's federated-learning orchestration: the
// FedBuff asynchronous algorithm (Section 3.1) and the synchronous baseline
// with over-selection and mid-round client replacement (Figure 1), both
// executed against the discrete-event simulator so that multi-day production
// runs replay in seconds.
//
// A Run couples four substrates:
//
//   - internal/population supplies heterogeneous clients (speed, data
//     volume, dropout) and per-participation execution times;
//   - internal/lmdata supplies each client's local dataset;
//   - internal/nn performs the client's local SGD (one epoch, B=32) and
//     evaluates the server model;
//   - internal/buffer + internal/fedopt aggregate weighted updates and
//     apply FedAdam server steps.
//
// The Result captures everything the paper's figures report: loss curves
// against simulated wall-clock, communication trips, server update
// frequency, utilization traces, staleness, and the participating-client
// samples behind the fairness analysis.
//
// Client local SGD executes on a parallel training engine (parallel.go): a
// worker pool sized by Config.Workers feeding per-shard aggregation
// consumers, with copy-on-write model snapshots. The event loop keeps
// making every decision, so results are bit-for-bit identical for any
// worker count; see DESIGN.md for the determinism contract.
package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"repro/internal/dp"
	"repro/internal/fedopt"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// Algorithm selects the aggregation protocol.
type Algorithm string

const (
	// Async is FedBuff: clients train continuously; the server updates the
	// model every K received updates, weighting by staleness.
	Async Algorithm = "async"
	// Sync is round-based FedAvg-style training with optional over-selection
	// and PAPAYA-style mid-round replacement of failed clients.
	Sync Algorithm = "sync"
)

// Config parameterizes one training run. Zero-valued optional fields are
// filled with paper defaults by Validate.
type Config struct {
	// Algorithm selects Async (FedBuff) or Sync.
	Algorithm Algorithm
	// Concurrency is the number of clients training in parallel (for Sync,
	// the number selected per round, including over-selection).
	Concurrency int
	// AggregationGoal is K, the client updates per server update. For Sync,
	// leave 0 to derive it from Concurrency/(1+OverSelection).
	AggregationGoal int
	// OverSelection is Sync's extra-selection fraction o: the round closes
	// after Concurrency/(1+o) updates and discards the rest. 0 disables
	// over-selection (the round waits for every client).
	OverSelection float64
	// MaxStaleness aborts Async clients whose staleness exceeds it
	// (Appendix E.1/E.2). 0 means unlimited.
	MaxStaleness int
	// ExampleWeighting weights each update by the client's example count
	// (the paper's behaviour). Zero value means enabled; set
	// DisableExampleWeighting for ablations.
	DisableExampleWeighting bool
	// Server is the server optimizer; nil means the paper's FedAdam.
	Server fedopt.Optimizer
	// DP, when non-nil, enables the central differential-privacy extension
	// the paper's conclusion names as future work: client updates are
	// L2-clipped and every released aggregate is noised; the Result reports
	// the cumulative (epsilon, delta).
	DP *dp.Config
	// Client configures local SGD; zero value means the paper's
	// one-epoch/B=32 setup.
	Client nn.SGDConfig
	// Seed makes the run reproducible.
	Seed uint64

	// SelectionDelayMean is the mean (exponential) delay before a
	// replacement client starts training, modeling the check-in and
	// assignment path through Selector and Coordinator.
	SelectionDelayMean float64
	// SyncStartStagger spreads a Sync cohort's start times uniformly over
	// this many seconds, producing the ramp-up visible in Figure 7.
	SyncStartStagger float64
	// RoundSetupDelay is the gap between a Sync round closing and the next
	// round's cohort starting.
	RoundSetupDelay float64

	// EvalEvery evaluates the server model every this many server updates;
	// 0 defaults to 10.
	EvalEvery int
	// EvalSeqs is the held-out evaluation set; empty disables loss
	// tracking (systems-only runs).
	EvalSeqs [][]int
	// TargetLoss halts the run once evaluation loss reaches it (0 = off).
	TargetLoss float64

	// Stop conditions; at least one of MaxServerUpdates, MaxClientUpdates,
	// or MaxSimTime must be set.
	MaxServerUpdates int
	MaxClientUpdates int64
	MaxSimTime       float64

	// NoTraining skips local SGD and server steps, turning the run into a
	// pure systems simulation (used by Figures 2, 7, 8).
	NoTraining bool
	// Workers sizes the parallel training engine: the number of goroutines
	// running client local SGD concurrently with the event loop. 0 defaults
	// to runtime.GOMAXPROCS(0). The Result is bit-for-bit identical for any
	// Workers value (see DESIGN.md, "Determinism contract"), so this knob
	// trades wall-clock time only, never reproducibility.
	Workers int
	// AggShards is the number of parallel intermediate aggregates
	// (Section 6.3); 0 defaults to 8.
	AggShards int
	// RecordParticipants caps how many received-update samples (execution
	// time, example count, staleness) are kept for the fairness analysis;
	// 0 keeps none.
	RecordParticipants int
	// RecordUtilization traces the active-client count on every change
	// (Figure 7). Off by default: large sweeps do not need the trace.
	RecordUtilization bool
}

// Validate fills defaults and reports configuration errors.
func (c *Config) Validate() error {
	if c.Algorithm != Async && c.Algorithm != Sync {
		return fmt.Errorf("core: unknown algorithm %q", c.Algorithm)
	}
	if c.Concurrency < 1 {
		return fmt.Errorf("core: Concurrency must be >= 1")
	}
	if c.OverSelection < 0 {
		return fmt.Errorf("core: OverSelection must be >= 0")
	}
	if c.Algorithm == Async && c.AggregationGoal < 1 {
		return fmt.Errorf("core: Async requires AggregationGoal >= 1")
	}
	if c.AggregationGoal == 0 && c.Algorithm == Sync {
		g := int(float64(c.Concurrency)/(1+c.OverSelection) + 0.5)
		if g < 1 {
			g = 1
		}
		c.AggregationGoal = g
	}
	if c.AggregationGoal > c.Concurrency && c.Algorithm == Sync {
		return fmt.Errorf("core: Sync AggregationGoal %d exceeds Concurrency %d",
			c.AggregationGoal, c.Concurrency)
	}
	if c.MaxStaleness < 0 {
		return fmt.Errorf("core: MaxStaleness must be >= 0")
	}
	if c.Server == nil {
		c.Server = fedopt.DefaultFedAdam()
	}
	if c.Client == (nn.SGDConfig{}) {
		c.Client = nn.DefaultSGDConfig()
	}
	if err := c.Client.Validate(); err != nil {
		return err
	}
	if c.DP != nil {
		if err := c.DP.Validate(); err != nil {
			return err
		}
		if c.NoTraining {
			return fmt.Errorf("core: DP requires training (NoTraining is set)")
		}
	}
	if c.SelectionDelayMean == 0 {
		c.SelectionDelayMean = 1
	}
	if c.SelectionDelayMean < 0 {
		return fmt.Errorf("core: SelectionDelayMean must be >= 0")
	}
	if c.SyncStartStagger == 0 {
		c.SyncStartStagger = 10
	}
	if c.RoundSetupDelay == 0 {
		c.RoundSetupDelay = 2
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 10
	}
	if c.EvalEvery < 0 {
		return fmt.Errorf("core: EvalEvery must be >= 0")
	}
	if c.AggShards == 0 {
		c.AggShards = 8
	}
	if c.AggShards < 0 {
		return fmt.Errorf("core: AggShards must be >= 1")
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 1")
	}
	if c.MaxServerUpdates <= 0 && c.MaxClientUpdates <= 0 && c.MaxSimTime <= 0 {
		return fmt.Errorf("core: set at least one stop condition")
	}
	return nil
}

// Result captures everything the evaluation section reports about one run.
type Result struct {
	// Algorithm and Goal echo the effective configuration.
	Algorithm Algorithm
	Goal      int
	// Workers echoes the effective worker-pool size. It never influences
	// any other Result field; the determinism regression tests enforce
	// this.
	Workers int

	// ServerUpdates is the number of server model versions produced.
	ServerUpdates int
	// CommTrips counts client updates received at the server, the paper's
	// communication metric (Figure 3, Figure 9 right).
	CommTrips int64
	// Discarded counts client updates thrown away: over-selection discards
	// in Sync, staleness aborts in Async.
	Discarded int64
	// Dropouts and Timeouts count failed participations.
	Dropouts, Timeouts int64

	// SimSeconds is the simulated duration of the run.
	SimSeconds float64
	// TimeToTarget is the simulated time at which evaluation loss first
	// reached TargetLoss; TargetReached reports whether it happened.
	TimeToTarget  float64
	TargetReached bool
	// FinalLoss is the last evaluation loss (NaN-free; 0 if never
	// evaluated).
	FinalLoss float64
	// FinalParams is the final server model (nil when NoTraining).
	FinalParams []float32

	// LossCurve is (simulated seconds, eval loss), one point per
	// evaluation — the training curves of Figure 12.
	LossCurve []metrics.Point
	// Utilization is (simulated seconds, active clients) recorded on every
	// change — Figure 7.
	Utilization []metrics.Point

	// RoundDurations lists Sync round lengths in seconds (Figure 2's mean
	// round duration).
	RoundDurations []float64

	// ParticipantExecTime/ParticipantExamples/StalenessSamples sample the
	// received updates (capped by RecordParticipants) — Figure 11.
	ParticipantExecTime []float64
	ParticipantExamples []float64
	StalenessSamples    []float64

	// MeanClientExecTime averages execution time across all completed
	// participations (including discarded ones).
	MeanClientExecTime float64

	// DPEpsilon and DPDelta report the cumulative privacy guarantee when
	// the DP extension was enabled (0, 0 otherwise).
	DPEpsilon, DPDelta float64
}

// FinalParamsHash returns a 64-bit FNV-1a hash over the exact bit patterns
// of FinalParams (0 when FinalParams is nil). The determinism regression
// tests and the benchmark emitter use it to compare whole models cheaply;
// two runs with equal hashes trained bit-for-bit identical parameters.
func (r *Result) FinalParamsHash() uint64 {
	if r.FinalParams == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range r.FinalParams {
		bits := math.Float32bits(v)
		buf[0] = byte(bits)
		buf[1] = byte(bits >> 8)
		buf[2] = byte(bits >> 16)
		buf[3] = byte(bits >> 24)
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// UpdatesPerHour returns server model updates per simulated hour (Figure 8).
func (r *Result) UpdatesPerHour() float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return float64(r.ServerUpdates) / (r.SimSeconds / 3600)
}

// Hours returns the simulated duration in hours.
func (r *Result) Hours() float64 { return r.SimSeconds / 3600 }

// TimeToTargetHours returns the hours to reach the target loss; it panics if
// the target was never reached, which keeps experiment tables honest.
func (r *Result) TimeToTargetHours() float64 {
	if !r.TargetReached {
		panic("core: target loss never reached")
	}
	return r.TimeToTarget / 3600
}
