//go:build race

package simulator

// raceEnabled reports whether the race detector is active. See
// race_off_test.go.
const raceEnabled = true
