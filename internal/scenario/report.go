package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Report is one scenario run's measurements: convergence (eval loss
// before/after), throughput, per-tier outcome counts and latency
// percentiles, and the full per-attempt event trace.
type Report struct {
	// Scenario is the profile name.
	Scenario string `json:"scenario"`
	// Rule is the resolved aggregation rule.
	Rule string `json:"rule"`
	// Mode is the aggregation mode (async|sync).
	Mode string `json:"mode"`
	// Fabric labels the transport the run used.
	Fabric string `json:"fabric"`
	// Clients is the fleet size.
	Clients int `json:"clients"`
	// Attempts is the per-client attempt budget.
	Attempts int `json:"attempts"`
	// Workers is the driver concurrency the run used.
	Workers int `json:"workers"`
	// Faults reports whether the spec requested a network fault profile.
	Faults bool `json:"faults"`
	// LossBefore and LossAfter are eval losses at init and at the final
	// server model — the convergence measurement.
	LossBefore float64 `json:"loss_before"`
	// LossAfter is the eval loss after the run.
	LossAfter float64 `json:"loss_after"`
	// Version is the final server model version (server steps taken).
	Version int `json:"version"`
	// Uploads counts accepted client updates.
	Uploads int64 `json:"uploads"`
	// WallSecs is the fleet driving wall time.
	WallSecs float64 `json:"wall_secs"`
	// DPEnabled reports whether the task ran under central DP.
	DPEnabled bool `json:"dp_enabled,omitempty"`
	// DPEpsilon is the cumulative privacy loss at the final release.
	DPEpsilon float64 `json:"dp_epsilon,omitempty"`
	// DPDelta is the accounting delta the epsilon is stated at.
	DPDelta float64 `json:"dp_delta,omitempty"`
	// DPReleases counts noised model releases.
	DPReleases int `json:"dp_releases,omitempty"`
	// DPBudget is the configured epsilon cap (0 = unlimited).
	DPBudget float64 `json:"dp_epsilon_budget,omitempty"`
	// DPExhausted reports whether the run stopped releasing on budget.
	DPExhausted bool `json:"dp_budget_exhausted,omitempty"`
	// UploadsPerSec is the accepted-upload throughput.
	UploadsPerSec float64 `json:"uploads_per_sec"`
	// Tiers carries per-tier outcome counts and latency percentiles.
	Tiers []TierStats `json:"tiers"`
	// Metrics is the run's delta of the process-global obs registry
	// (nonzero papaya_ samples only): server-tier counters and latency
	// histogram series attributable to this run, committed alongside the
	// stdout-derived figures. Deltas, because the in-process registry is
	// shared across runs in one test binary.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Trace is the per-attempt event log, sorted by (client, attempt).
	// It is excluded from bench rows (PlanTrace renders it for diffing).
	Trace []TraceEvent `json:"-"`
}

// TierStats aggregates one tier's outcomes.
type TierStats struct {
	// Tier is the tier name.
	Tier string `json:"tier"`
	// Clients is the tier's device count.
	Clients int `json:"clients"`
	// Completed counts accepted uploads.
	Completed int `json:"completed"`
	// Dropped counts scenario-injected dropouts.
	Dropped int `json:"dropped"`
	// Rejected counts selection rejections (no demand).
	Rejected int `json:"rejected"`
	// Aborted counts server-side discards (staleness, round close).
	Aborted int `json:"aborted"`
	// Unavailable counts attempts skipped by the availability window.
	Unavailable int `json:"unavailable"`
	// Errors counts transport-level failures.
	Errors int `json:"errors"`
	// P50Millis is the median completed-session latency.
	P50Millis float64 `json:"p50_ms"`
	// P99Millis is the tail completed-session latency.
	P99Millis float64 `json:"p99_ms"`
}

// TraceEvent is one (client, attempt) entry in the event trace: the
// pre-drawn fault plan plus the observed outcome.
type TraceEvent struct {
	// Client is the 1-based client ID.
	Client int64 `json:"client"`
	// Attempt is the 0-based attempt index.
	Attempt int `json:"attempt"`
	// Available is the plan's availability draw.
	Available bool `json:"available"`
	// Drop is the planned dropout stage ("" = survive).
	Drop string `json:"drop,omitempty"`
	// Vanish is whether the planned drop is silent.
	Vanish bool `json:"vanish,omitempty"`
	// DelayMicros is the planned simulated device compute.
	DelayMicros int64 `json:"delay_us"`
	// Outcome is what actually happened (completed, dropped, rejected,
	// aborted, unavailable, error).
	Outcome string `json:"outcome"`
}

// PlanTrace renders the schedule half of the trace — the pre-drawn plans,
// excluding observed outcomes — as a canonical string. Two runs of the
// same spec must produce identical PlanTrace output at any worker count;
// outcomes legitimately vary with interleaving (a straggler may be aborted
// in one run and accepted in another), so they are not part of the
// determinism contract.
func (r *Report) PlanTrace() string {
	var b strings.Builder
	for _, ev := range r.Trace {
		fmt.Fprintf(&b, "client=%d attempt=%d available=%t drop=%q vanish=%t delay_us=%d\n",
			ev.Client, ev.Attempt, ev.Available, ev.Drop, ev.Vanish, ev.DelayMicros)
	}
	return b.String()
}

// Summary is the run's one-line human summary; the CI scenario-smoke job
// greps for its "converged loss" marker.
func (r *Report) Summary() string {
	dpTail := ""
	if r.DPEnabled {
		status := "within budget"
		if r.DPExhausted {
			status = "budget_exhausted"
		}
		dpTail = fmt.Sprintf(", dp epsilon=%.4f delta=%g releases=%d status=%s",
			r.DPEpsilon, r.DPDelta, r.DPReleases, status)
	}
	if r.Uploads == 0 || r.LossAfter >= r.LossBefore {
		return fmt.Sprintf("scenario %q rule=%s: NO CONVERGENCE: %d uploads, loss %.4f -> %.4f%s",
			r.Scenario, r.Rule, r.Uploads, r.LossBefore, r.LossAfter, dpTail)
	}
	return fmt.Sprintf("scenario %q rule=%s mode=%s: %d uploads in %.2fs (%.1f/s), converged loss %.4f -> %.4f (version %d)%s",
		r.Scenario, r.Rule, r.Mode, r.Uploads, r.WallSecs, r.UploadsPerSec,
		r.LossBefore, r.LossAfter, r.Version, dpTail)
}

// benchFile is the on-disk shape of BENCH_scenarios.json: append-only run
// rows, mirroring the loadtest/fleet bench artifacts.
type benchFile struct {
	CreatedUnix int64     `json:"created_unix"`
	Runs        []*Report `json:"runs"`
}

// WriteReport appends the report to the JSON bench file at path, creating
// it when missing ("-" writes the row to stdout instead).
func WriteReport(path string, r *Report) error {
	if path == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	var bench benchFile
	if data, err := os.ReadFile(path); err == nil {
		// A corrupt or foreign file is replaced rather than appended to.
		_ = json.Unmarshal(data, &bench)
	}
	if bench.CreatedUnix == 0 {
		bench.CreatedUnix = time.Now().Unix()
	}
	bench.Runs = append(bench.Runs, r)
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
