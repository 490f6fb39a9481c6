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
