//go:build !race

package simulator

// raceEnabled reports whether the race detector is active. Allocation-count
// assertions are skipped under -race: the detector drops sync.Pool items at
// random (the encoders pool their scratch) and inflates AllocsPerRun.
const raceEnabled = false
