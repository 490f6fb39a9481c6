//go:build race

package nn

// raceEnabled reports whether this test binary was built with -race, under
// which sync.Pool drops a share of Puts on purpose, so AllocsPerRun
// assertions on pooled scratch are meaningless.
const raceEnabled = true
