package simulator

import "math/rand"

// newSeededRand returns the deterministic sampling RNG a fleet sensor
// replays from its seed on every (re)connection, so resume is invisible in
// the sampled data. It is the same source RunContext draws from, which makes
// a one-sensor fleet sample exactly as the in-process run does.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
