package simulator

import "math/rand"

// newSeededRand returns a sensor's sampling RNG. Seek rewinds and replays it
// on every (re)connection, so resume is invisible in the sampled data, and
// RunContext drives sensor 0, so a one-sensor fleet samples as it does.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
