//go:build !race

package compress_test

// raceEnabled reports whether this test binary was built with -race; see
// race_on_test.go.
const raceEnabled = false
