//go:build linux

package vecf

import (
	"bufio"
	"os"
	"slices"
	"strings"
	"testing"
)

// The CPUID/XGETBV check agrees with the kernel's view of the CPU: a
// broken check would only fall back to Go and lose speed, silently.
func TestAVX2DetectionMatchesCPUInfo(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, flags, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx2"); useAVX2 != want {
			t.Fatalf("useAVX2 = %v, /proc/cpuinfo lists avx2: %v", useAVX2, want)
		}
		return
	}
	t.Skipf("no flags line in /proc/cpuinfo (%v)", sc.Err())
}
