package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
)

// TestFleetSmoke builds the papaya binary and drives a real multi-process
// deployment through the fleet harness: 2 agents behind 2 selectors, a
// scaling sweep, an agent SIGKILL with measured recovery, an agent restart,
// and a selector SIGKILL. It is the committed counterpart of the CI
// fleet-smoke job, at reduced scale.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "papaya")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	report := filepath.Join(dir, "BENCH_fleet.json")
	run := exec.Command(bin, "fleet",
		"-agents", "2", "-selectors", "2",
		"-clients", "8", "-uploads", "60",
		"-tasks", "8",
		"-kill-agent", "-kill-selector",
		"-max-recovery", "30s", "-timeout", "3m",
		"-o", report)
	out, err := run.CombinedOutput()
	t.Logf("fleet output:\n%s", out)
	if err != nil {
		t.Fatalf("papaya fleet: %v", err)
	}

	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	var rep fleet.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parsing report: %v", err)
	}
	if rep.Agents != 2 || rep.Selectors != 2 {
		t.Fatalf("topology = %d agents / %d selectors, want 2/2", rep.Agents, rep.Selectors)
	}
	if len(rep.Placement.PerAgent) != 2 || rep.Placement.MaxOverMin <= 0 {
		t.Fatalf("placement not measured: %+v", rep.Placement)
	}
	if len(rep.Phases) < 3 {
		t.Fatalf("want >=3 scaling phases, got %d", len(rep.Phases))
	}
	for i, ph := range rep.Phases[:3] {
		if ph.Uploads == 0 {
			t.Fatalf("phase %d completed no uploads: %+v", i, ph)
		}
	}
	kinds := map[string]bool{}
	for _, f := range rep.Failovers {
		kinds[f.Kind] = true
		if f.RecoverySeconds < 0 {
			t.Fatalf("failover %s/%s did not recover", f.Kind, f.Target)
		}
	}
	for _, want := range []string{"agent-kill", "agent-restart", "selector-kill"} {
		if !kinds[want] {
			t.Fatalf("report missing %q failover event; got %+v", want, rep.Failovers)
		}
	}
}
