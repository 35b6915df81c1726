//go:build !race

package projection

// raceEnabled reports whether the race detector is active. Allocation-count
// assertions are skipped under -race: the detector's instrumentation
// allocates inside sync.Pool and inflates AllocsPerRun.
const raceEnabled = false
