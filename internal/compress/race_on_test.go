//go:build race

package compress_test

// raceEnabled reports whether this test binary was built with -race, whose
// instrumentation adds allocations (and makes sync.Pool drop items) so that
// AllocsPerRun assertions are meaningless.
const raceEnabled = true
