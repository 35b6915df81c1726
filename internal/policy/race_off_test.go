//go:build !race

package policy

// raceEnabled reports whether the race detector is active. Allocation-count
// assertions that go through sync.Pool are skipped under -race: the
// detector drops pooled items at random and inflates AllocsPerRun.
const raceEnabled = false
