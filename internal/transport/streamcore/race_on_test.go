//go:build race

package streamcore

// raceEnabled reports whether this test binary was built with -race, whose
// instrumentation adds allocations that make AllocsPerRun assertions
// meaningless.
const raceEnabled = true
