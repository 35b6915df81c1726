// Package policy implements the sampling policies of the paper's evaluation
// (§5.1): the non-adaptive Uniform and Random baselines and the adaptive
// Linear [Chatterjea & Havinga] and Deviation [LiteSense] policies, plus the
// offline per-budget threshold fitting both adaptive policies require. The
// Skip RNN policy (§5.5) lives in skiprnn.go and builds on internal/rnn.
//
// A policy decides, online, which time steps of a T-step sequence to
// collect. Adaptive policies see only the measurements they collected —
// sampling is causal — and their collection counts therefore track the
// signal's volatility, which is exactly the information the message-size
// side-channel exposes.
package policy

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// Policy selects which time steps of a sequence to collect.
type Policy interface {
	// Sample returns the collected indices, strictly increasing, each in
	// [0, len(seq)). seq is the full T x d ground-truth sequence; adaptive
	// implementations must only inspect rows they chose to collect.
	Sample(seq [][]float64, rng *rand.Rand) []int
}

// l1 returns the L1 distance between two measurements.
func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Uniform collects k = floor(rate*T) elements at evenly spaced indices
// t = r*ceil(T/k), topping up with random unused indices when k does not
// divide T (§5.1). Its collection count is fixed, so it leaks nothing — the
// paper's no-leakage baseline.
type Uniform struct {
	rate float64
}

// NewUniform returns a Uniform policy with the given collection rate.
func NewUniform(rate float64) *Uniform { return &Uniform{rate: rate} }

// Sample implements Policy.
func (u *Uniform) Sample(seq [][]float64, rng *rand.Rand) []int {
	T := len(seq)
	k := collectCount(T, u.rate)
	step := (T + k - 1) / k // ceil(T/k)
	used := make([]bool, T)
	idx := make([]int, 0, k)
	for r := 0; r*step < T && len(idx) < k; r++ {
		idx = append(idx, r*step)
		used[r*step] = true
	}
	// Top up with random unused indices, then restore sorted order.
	for len(idx) < k {
		t := rng.Intn(T)
		if !used[t] {
			used[t] = true
			idx = append(idx, t)
		}
	}
	insertionSort(idx)
	return idx
}

// Random collects k = floor(rate*T) elements chosen uniformly at random
// without replacement. The paper evaluates it but reports Uniform instead,
// which dominates it (§5.1); it is included for the same comparison.
type Random struct {
	rate float64
}

// NewRandom returns a Random policy with the given collection rate.
func NewRandom(rate float64) *Random { return &Random{rate: rate} }

// Sample implements Policy.
func (r *Random) Sample(seq [][]float64, rng *rand.Rand) []int {
	T := len(seq)
	k := collectCount(T, r.rate)
	idx := rng.Perm(T)[:k]
	out := append([]int(nil), idx...)
	insertionSort(out)
	return out
}

// Linear is the adaptive policy of Chatterjea & Havinga [25]: it compares
// consecutive collected measurements; when the absolute difference exceeds
// the threshold it resets the collection period to one (sample the next
// element), otherwise it stretches the period by one step, up to a maximum
// interval (the original algorithm likewise bounds the sampling interval so
// a quiet signal cannot silence the sensor).
type Linear struct {
	threshold float64
	maxPeriod int
}

// NewLinear returns a Linear policy with an already-fitted threshold.
func NewLinear(threshold float64) *Linear { return &Linear{threshold: threshold, maxPeriod: 16} }

// Sample implements Policy. It never reads rng.
func (l *Linear) Sample(seq [][]float64, _ *rand.Rand) []int {
	if len(seq) == 0 {
		return nil
	}
	return sampleWalk(l, seq, 0, l.threshold)
}

// replay moves w to threshold th (see thresholdWalk). The compared value at
// visit k is the L1 step from the previous collected measurement.
//
//age:hotpath
func (l *Linear) replay(w *thresholdWalk, th float64) {
	k, ok := w.resume(th)
	if !ok {
		return
	}
	seq, idx, val := w.seq, w.idx, w.val
	p := 1 // the period after the anchor
	if k > 0 {
		p = l.next(idx[k]-idx[k-1], val[k] > th)
	}
	prev := seq[idx[k]]
	for t := idx[k] + p; t < len(seq); t += p {
		cur := seq[t]
		v := l1(cur, prev)
		p = l.next(p, v > th)
		idx, val = append(idx, t), append(val, v)
		prev = cur
	}
	w.idx, w.val = idx, val
}

// next returns the period after a visit: one when the step exceeded the
// threshold, otherwise one longer, up to maxPeriod.
func (l *Linear) next(period int, above bool) int {
	if above {
		return 1
	}
	return minInt(l.maxPeriod, period+1)
}

// Deviation is the adaptive policy of LiteSense [96]: exponentially weighted
// moving estimates of the signal mean and deviation control the collection
// period, which halves when the tracked deviation exceeds the threshold and
// doubles when it stays below.
type Deviation struct {
	threshold float64
	// gamma and beta are the EWMA weights for deviation and mean; the
	// defaults follow LiteSense's recommended smoothing.
	gamma, beta float64
	maxPeriod   int
}

// NewDeviation returns a Deviation policy with an already-fitted threshold.
func NewDeviation(threshold float64) *Deviation {
	return &Deviation{threshold: threshold, gamma: 0.7, beta: 0.3, maxPeriod: 4}
}

// Sample implements Policy. It never reads rng.
func (d *Deviation) Sample(seq [][]float64, _ *rand.Rand) []int {
	if len(seq) == 0 {
		return nil
	}
	return sampleWalk(d, seq, len(seq[0]), d.threshold)
}

// replay moves w to threshold th (see thresholdWalk). The compared value at
// visit k is the tracked deviation after the visit's update; the mean and
// deviation updates do not depend on the threshold, so a resumed walk
// starts from the stored state of its first flipped visit.
//
//age:hotpath
func (d *Deviation) replay(w *thresholdWalk, th float64) {
	k, ok := w.resume(th)
	if !ok {
		return
	}
	seq, idx, val, means, nf := w.seq, w.idx, w.val, w.mean, w.nf
	p := 1 // the period after the anchor
	if k > 0 {
		p = d.next(idx[k]-idx[k-1], val[k] > th)
	} else {
		copy(means[:nf], seq[0])
	}
	dev, prev := val[k], means[k*nf:(k+1)*nf]
	for t := idx[k] + p; t < len(seq); t += p {
		k++
		mean := means[k*nf : (k+1)*nf]
		cur := seq[t][:nf]
		// Update the tracked deviation before the mean, so the
		// deviation measures surprise relative to the running estimate.
		var dist float64
		for f := range cur {
			dist += math.Abs(cur[f] - prev[f])
		}
		dev = (1-d.gamma)*dev + d.gamma*dist
		for f := range cur {
			mean[f] = (1-d.beta)*prev[f] + d.beta*cur[f]
		}
		p = d.next(p, dev > th)
		idx, val = append(idx, t), append(val, dev)
		prev = mean
	}
	w.idx, w.val = idx, val
}

// next returns the period after a visit: halved when the deviation exceeded
// the threshold, otherwise doubled, up to maxPeriod.
func (d *Deviation) next(period int, above bool) int {
	if above {
		return maxInt(1, period/2)
	}
	return minInt(d.maxPeriod, period*2)
}

// thresholdWalk is a threshold policy's walk over one sequence at the last
// threshold it was replayed at. Both Linear and Deviation compare a value
// against the threshold at every visit (a collected step), and the value at
// visit k depends only on the visits before k; the decision at k sets only
// the period to the next visit. So the walk at a new threshold is the stored
// walk up to the first visit whose decision flips, and a cold start from
// there on.
type thresholdWalk struct {
	seq [][]float64
	// th is the threshold of the last replay; the decision at visit k is
	// val[k] > th.
	th float64
	// Per visit k: idx[k] is the visited (collected) step, idx[0] the
	// anchor step 0, and val[k] the value compared against the threshold
	// (k >= 1). The period after visit k-1 is idx[k] - idx[k-1].
	idx []int
	val []float64
	// mean[k*nf:(k+1)*nf] is Deviation's running mean after visit k; nil
	// for Linear (nf 0).
	mean []float64
	nf   int
}

// newThresholdWalk returns an empty walk over a non-empty seq with room for
// every step, so replays never allocate. nf is the number of features
// Deviation tracks a mean over, 0 for Linear.
func newThresholdWalk(seq [][]float64, nf int) *thresholdWalk {
	w := &thresholdWalk{}
	w.reset(seq, nf, make([]int, 0, len(seq)))
	return w
}

// reset empties w for a cold start over seq, with idx (empty, capacity
// len(seq)) as its visit list. It keeps val and mean when they are large
// enough; a cold start writes every entry before reading it.
func (w *thresholdWalk) reset(seq [][]float64, nf int, idx []int) {
	w.seq, w.th, w.idx, w.nf = seq, 0, idx, nf
	w.val = slices.Grow(w.val[:0], len(seq))
	w.mean = resize(w.mean, len(seq)*nf)
}

// resize returns s at length n, reusing its storage when it is large
// enough. The contents are unspecified: callers write before they read.
func resize(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// walkPool holds the walks Sample borrows, so a Sample call allocates only
// the visit list it returns.
var walkPool = sync.Pool{New: func() any { return new(thresholdWalk) }}

// sampleWalk cold-starts p's walk over a non-empty seq at th on a pooled
// walk and returns the collected steps, which the caller owns.
func sampleWalk(p thresholdPolicy, seq [][]float64, nf int, th float64) []int {
	w := walkPool.Get().(*thresholdWalk)
	w.reset(seq, nf, make([]int, 0, len(seq)))
	p.replay(w, th)
	idx := w.idx
	w.seq, w.idx = nil, nil
	walkPool.Put(w)
	return idx
}

// resume re-checks the stored decisions at th and moves the walk to th. It
// returns the visit whose decision the caller's loop retakes before walking
// on, with the walk cut just past it, and false when no decision flips and
// the walk stands. An empty walk is a cold start: it collects step 0 (the
// interpolation anchor) with value 0 and resumes from visit 0.
func (w *thresholdWalk) resume(th float64) (k int, ok bool) {
	prev := w.th
	w.th = th
	if len(w.idx) == 0 {
		w.idx, w.val = append(w.idx, 0), append(w.val, 0)
		return 0, true
	}
	for k = 1; k < len(w.idx); k++ {
		if (w.val[k] > th) != (w.val[k] > prev) {
			w.idx, w.val = w.idx[:k+1], w.val[:k+1]
			return k, true
		}
	}
	return 0, false
}

// collectCount mirrors energy.CollectCount without importing it: floor(rate*T)
// clamped to [1, T].
func collectCount(T int, rate float64) int {
	k := int(rate * float64(T))
	if k < 1 {
		k = 1
	}
	if k > T {
		k = T
	}
	return k
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
