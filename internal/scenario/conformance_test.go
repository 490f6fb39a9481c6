package scenario_test

// The scenario conformance suite: every committed fleet profile crossed
// with every aggregation rule, on every transport fabric. The in-memory
// cells always run (they are the `-race` tier); the networked fabrics are
// skipped under -short so `go test ./...` exercises the full matrix while
// the race step stays fast.

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/transport"
	"repro/internal/transport/httptransport"
	"repro/internal/transport/tcptransport"
)

// scenarioFabrics mirrors the cell names of internal/server's transport
// conformance suite (which lives in another test package and cannot be
// imported), read the same way: only the carrier (inmem | http | tcp)
// still selects anything. Every http-* name builds the same fabric, and so
// do tcp and tcp-bin-deflate ("deflate" selects nothing since frame-level
// compression was removed) — 3 distinct configurations under 8 names, the
// extras listed only because tier-1's floor pins every cell by name
// (ROADMAP item 6).
var scenarioFabrics = []string{"inmem", "http", "http-bin", "http-deflate", "http-deflate-bin",
	"http-stream", "tcp", "tcp-bin-deflate"}

func makeFabric(t *testing.T, name string, seed int64) transport.Fabric {
	t.Helper()
	var f interface {
		transport.Fabric
		Close() error
	}
	var err error
	switch {
	case name == "inmem":
		return transport.NewNetwork(seed)
	case strings.HasPrefix(name, "http"):
		f, err = httptransport.New(httptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
	default:
		f, err = tcptransport.New(tcptransport.Options{Listen: "127.0.0.1:0", Seed: seed})
	}
	if err != nil {
		t.Fatalf("starting %s fabric: %v", name, err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// conformanceRules are the aggregation crossings: the extracted FedAvg
// path in sync mode, the FedBuff staleness weighting in async mode, and
// the two-sided FedProx variant in async mode.
var conformanceRules = []struct {
	rule string
	mode string
}{
	{rule: "fedavg", mode: "sync"},
	{rule: "fedbuff", mode: "async"},
	{rule: "fedprox", mode: "async"},
}

// conformanceProfiles are the committed fleet profiles under test.
var conformanceProfiles = []string{"uniform", "tiered-stragglers", "flaky-network"}

// Convergence and throughput floors. The bounds are deliberately loose —
// deterministic lower bounds, not point estimates — because outcome counts
// vary with scheduling (the fault *schedule* is deterministic; which
// stragglers get aborted is not). The weakest measured cell
// (uniform/fedavg-sync) still improves eval loss by ~0.02, so a 0.003
// margin has wide headroom, and even the slowest fabric under -race
// clears half an upload per second by orders of magnitude.
const (
	lossMargin      = 0.003
	throughputFloor = 0.5 // accepted uploads per second
)

// TestScenarioConformance is the headline matrix: 3 committed profiles x
// 3 aggregation rules x every fabric cell, asserting convergence bounds,
// throughput floors, and report self-consistency for every cell.
func TestScenarioConformance(t *testing.T) {
	for _, fabric := range scenarioFabrics {
		fabric := fabric
		t.Run(fabric, func(t *testing.T) {
			if fabric != "inmem" && testing.Short() {
				t.Skipf("%s cells run in the full (no -short) matrix", fabric)
			}
			for _, prof := range conformanceProfiles {
				for _, rc := range conformanceRules {
					rc := rc
					t.Run(prof+"/"+rc.rule, func(t *testing.T) {
						spec := loadSpec(t, prof)
						spec.Aggregation = rc.rule
						spec.AggParam = 0 // rule defaults
						spec.Mode = rc.mode
						rep, err := scenario.Run(spec, scenario.Options{
							Fabric:     makeFabric(t, fabric, 1),
							FabricName: fabric,
						})
						if err != nil {
							t.Fatal(err)
						}
						assertConformance(t, spec, rep, rc.rule, rc.mode)
					})
				}
			}
		})
	}
}

func assertConformance(t *testing.T, spec scenario.Spec, rep *scenario.Report, rule, mode string) {
	t.Helper()
	if rep.Rule != rule || rep.Mode != mode {
		t.Fatalf("report rule/mode = %s/%s, want %s/%s", rep.Rule, rep.Mode, rule, mode)
	}
	// Convergence: the final server model must beat the init model on the
	// held-out eval set by at least the margin.
	if rep.Uploads == 0 || rep.Version == 0 {
		t.Fatalf("no aggregation happened: %s", rep.Summary())
	}
	if rep.LossAfter > rep.LossBefore-lossMargin {
		t.Fatalf("no convergence: loss %.4f -> %.4f (margin %.4f): %s",
			rep.LossBefore, rep.LossAfter, lossMargin, rep.Summary())
	}
	// Throughput: at least one full aggregation goal's worth of accepted
	// uploads, at a floor rate.
	if rep.Uploads < int64(spec.Goal) {
		t.Fatalf("only %d accepted uploads, want >= goal %d", rep.Uploads, spec.Goal)
	}
	if rep.UploadsPerSec < throughputFloor {
		t.Fatalf("throughput %.2f uploads/s below floor %.2f", rep.UploadsPerSec, throughputFloor)
	}
	// Report self-consistency: the trace covers the whole attempt budget
	// and per-tier completions account for every accepted upload.
	if want := spec.NumClients() * spec.Attempts; len(rep.Trace) != want {
		t.Fatalf("trace has %d events, want %d", len(rep.Trace), want)
	}
	var completed int
	for _, ts := range rep.Tiers {
		completed += ts.Completed
	}
	if int64(completed) != rep.Uploads {
		t.Fatalf("tier completed sum %d != accepted uploads %d", completed, rep.Uploads)
	}
}
