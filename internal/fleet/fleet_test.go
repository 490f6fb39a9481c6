package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWaitForLine covers the supervision surface against a plain shell
// child: readiness lines are found (including ones printed before the
// wait started), a line that never comes times out, and an exited child
// reports the exit instead of blocking.
func TestWaitForLine(t *testing.T) {
	p, err := Spawn("echoer", "/bin/sh",
		[]string{"-c", "echo booting; echo ready; sleep 30"}, nil)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer p.Stop(2 * time.Second)

	line, err := p.WaitForLine("ready", 5*time.Second)
	if err != nil {
		t.Fatalf("waiting for ready: %v", err)
	}
	if line != "ready" {
		t.Fatalf("line = %q, want %q", line, "ready")
	}
	// Already-scanned lines are visible to later waits.
	if _, err := p.WaitForLine("booting", time.Second); err != nil {
		t.Fatalf("waiting for earlier line: %v", err)
	}
	if _, err := p.WaitForLine("never-printed", 100*time.Millisecond); err == nil {
		t.Fatal("expected timeout waiting for absent line")
	}
}

func TestWaitForLineAfterExit(t *testing.T) {
	p, err := Spawn("oneshot", "/bin/sh", []string{"-c", "echo done"}, nil)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if _, err := p.WaitForLine("done", 5*time.Second); err != nil {
		t.Fatalf("waiting for done: %v", err)
	}
	// The shell may exit on its own or catch our SIGTERM depending on
	// timing; either way Stop must return with the process gone.
	_ = p.Stop(2 * time.Second)
	if !p.Exited() {
		t.Fatal("process should have exited")
	}
	// A wait on an exited process fails fast instead of timing out.
	start := time.Now()
	if _, err := p.WaitForLine("absent", 10*time.Second); err == nil {
		t.Fatal("expected error waiting on exited process")
	} else if !strings.Contains(err.Error(), "exited") {
		t.Fatalf("err = %v, want exit-flavoured", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("wait on exited process should return promptly")
	}
}

func TestKillIsImmediate(t *testing.T) {
	p, err := Spawn("sleeper", "/bin/sh", []string{"-c", "sleep 60"}, nil)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	p.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for !p.Exited() {
		if time.Now().After(deadline) {
			t.Fatal("killed process did not exit")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWriteReportRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	in := Report{
		CreatedUnix: 1700000000, Fabric: "http",
		Agents: 2, Selectors: 2, Clients: 64,
		Phases: []Phase{{Clients: 16, Uploads: 100, UploadsPerSecond: 50}},
		Placement: Placement{
			Tasks: 17, PerAgent: map[string]int{"a": 8, "b": 9}, MaxOverMin: 1.125,
		},
		Failovers: []Failover{{Kind: "agent-kill", Target: "a", RecoverySeconds: 2.1, UploadsAfter: 40}},
	}
	if err := WriteReport(path, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var out Report
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Placement.MaxOverMin != in.Placement.MaxOverMin ||
		out.Failovers[0].RecoverySeconds != in.Failovers[0].RecoverySeconds ||
		out.Phases[0].Uploads != in.Phases[0].Uploads {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}
