package papaya_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds makes tier-1 see benchmark/. It is a module of
// its own (so BENCHMARK.json's build is self-contained) that imports
// repro/internal/..., which means `go build ./... && go test ./...` at the
// root neither compiles nor tests it: renaming anything it calls would
// break the canonical benchmark silently. The nested module has no
// external requirement, only `replace repro => ../`, so it builds offline.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests the nested benchmark module; skipped in -short")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=mod")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("(cd benchmark && go %s %s): %v\n%s", args[0], args[1], err, out)
		}
	}
}
