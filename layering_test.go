package papaya_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestTransportDoesNotImportCompress keeps compression out of the
// transport: frames cross the wire as encoded, and only the plaintext
// upload path compresses, through internal/compress. No package under
// internal/transport may depend on it, directly or transitively.
func TestTransportDoesNotImportCompress(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./internal/transport/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps ./internal/transport/...: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "repro/internal/compress" {
			t.Fatal("a package under internal/transport depends on repro/internal/compress")
		}
	}
}

// TestRoundIsEngineFree keeps the release stage shared by both engines
// free of either: internal/round may not depend, directly or transitively,
// on the networked server, the simulator, or any transport package.
func TestRoundIsEngineFree(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./internal/round").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps ./internal/round: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "repro/internal/server" || pkg == "repro/internal/core" ||
			strings.HasPrefix(pkg, "repro/internal/transport") {
			t.Fatalf("internal/round depends on %s", pkg)
		}
	}
}
