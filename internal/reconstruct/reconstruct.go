// Package reconstruct implements the server side of the subsampling
// pipeline: rebuilding a full T-step sequence from the subset of collected
// measurements by linear interpolation (§5.1), and the error metrics of the
// evaluation — mean absolute error (Tables 4, 7, 10) and deviation-weighted
// MAE (Table 5).
package reconstruct

import (
	"fmt"
	"math"
)

// Linear rebuilds a full sequence of length T from measurements at the given
// indices. Values between collected points are linearly interpolated;
// values before the first (after the last) collected point hold the first
// (last) collected value. An empty batch reconstructs to all zeros.
func Linear(indices []int, values [][]float64, T, d int) ([][]float64, error) {
	if err := checkBatch(indices, values, T, d); err != nil {
		return nil, err
	}
	// Carve the rows from one backing array: two allocations per call, not
	// T+1. Capped slices keep an append to one row off its neighbour.
	flat := make([]float64, T*d)
	out := make([][]float64, T)
	for t := range out {
		out[t] = flat[t*d : (t+1)*d : (t+1)*d]
	}
	if len(indices) == 0 {
		return out, nil
	}
	// Head: hold the first collected value.
	for t := 0; t < indices[0]; t++ {
		copy(out[t], values[0])
	}
	// Interior: linear interpolation between consecutive collected points.
	for i := 0; i+1 < len(indices); i++ {
		lo, hi := indices[i], indices[i+1]
		copy(out[lo], values[i])
		span := float64(hi - lo)
		for t := lo + 1; t < hi; t++ {
			alpha := float64(t-lo) / span
			for f := 0; f < d; f++ {
				out[t][f] = lerp(values[i][f], values[i+1][f], alpha)
			}
		}
	}
	// Tail: hold the last collected value.
	last := indices[len(indices)-1]
	for t := last; t < T; t++ {
		copy(out[t], values[len(values)-1])
	}
	return out, nil
}

// checkBatch validates a batch for reconstruction: one value row per
// index, indices strictly ascending in [0, T), every row d wide.
func checkBatch(indices []int, values [][]float64, T, d int) error {
	if len(indices) != len(values) {
		return fmt.Errorf("reconstruct: %d indices but %d value rows", len(indices), len(values))
	}
	prev := -1
	for i, idx := range indices {
		if idx < 0 || idx >= T || idx <= prev {
			return fmt.Errorf("reconstruct: bad index %d at position %d", idx, i)
		}
		prev = idx
		if len(values[i]) != d {
			return fmt.Errorf("reconstruct: row %d has %d features, want %d", i, len(values[i]), d)
		}
	}
	return nil
}

// lerp is the interpolation expression shared by Linear and the linear
// walk, so both round identically.
func lerp(a, b, alpha float64) float64 { return a*(1-alpha) + b*alpha }

// LinearMAE returns MAE(Linear(indices, values, T, d), truth) without
// materializing the T×d reconstruction. It reports the same errors, checked
// in the same order, and visits every (step, feature) pair in the order
// MAE does with the value Linear would have stored there, so the result is
// bit-identical.
//
//age:hotpath
func LinearMAE(indices []int, values, truth [][]float64, T, d int) (float64, error) {
	mae, _, err := linearMAEWalk(indices, values, truth, T, d)
	return mae, err
}

// LinearMAEStdDev returns LinearMAE(indices, values, truth, T, d) and
// SequenceStdDev(truth), bit for bit, from one walk over truth: the walk
// that scores the reconstruction also sums the truth values, in the order
// SequenceStdDev's first pass does, so only the squared-deviation pass
// runs a second time. On error both figures are 0.
//
//age:hotpath
func LinearMAEStdDev(indices []int, values, truth [][]float64, T, d int) (mae, weight float64, err error) {
	mae, truthSum, err := linearMAEWalk(indices, values, truth, T, d)
	if err != nil {
		return 0, 0, err
	}
	return mae, stdDevAbout(truth, truthSum, T*d), nil
}

// linearMAEWalk validates a batch against its truth and walks every
// (step, feature) pair once, t then f ascending, returning the mean
// absolute error of the linear reconstruction and the plain sum of the
// truth values. The two sums are independent accumulators, so their
// float-add latency chains overlap.
//
//age:hotpath
func linearMAEWalk(indices []int, values, truth [][]float64, T, d int) (mae, truthSum float64, err error) {
	if err := checkBatch(indices, values, T, d); err != nil {
		return 0, 0, err
	}
	if len(truth) != T {
		return 0, 0, fmt.Errorf("reconstruct: MAE length mismatch %d vs %d", T, len(truth))
	}
	for t, row := range truth {
		if len(row) != d {
			return 0, 0, fmt.Errorf("reconstruct: MAE width mismatch at step %d", t)
		}
	}
	if T == 0 || d == 0 {
		return 0, 0, nil
	}
	var sum, tsum float64
	if len(indices) == 0 {
		// Linear's all-zero reconstruction.
		for _, row := range truth {
			for _, x := range row {
				sum += absDiff(0, x)
				tsum += x
			}
		}
		return sum / float64(T*d), tsum, nil
	}
	for t := 0; t < indices[0]; t++ {
		sum, tsum = sumAbsDiff(sum, tsum, values[0], truth[t])
	}
	for i := 0; i+1 < len(indices); i++ {
		lo, hi := indices[i], indices[i+1]
		v0, v1 := values[i], values[i+1]
		sum, tsum = sumAbsDiff(sum, tsum, v0, truth[lo])
		span := float64(hi - lo)
		for t := lo + 1; t < hi; t++ {
			alpha := float64(t-lo) / span
			row := truth[t][:len(v0)]
			for f, x := range row {
				sum += absDiff(lerp(v0[f], v1[f], alpha), x)
				tsum += x
			}
		}
	}
	for t := indices[len(indices)-1]; t < T; t++ {
		sum, tsum = sumAbsDiff(sum, tsum, values[len(values)-1], truth[t])
	}
	return sum / float64(T*d), tsum, nil
}

// absDiff is MAE's per-value term, shared by MAE and the linear walk so
// both evaluate one expression. math.Abs differs from negate-if-negative
// only in the sign it leaves on -0 and NaN. Every sum of these terms
// starts at +0 and +0 + -0 is +0, so a -0 term never changes a sum, and a
// NaN term makes it NaN either way. Unlike the comparison, math.Abs is a
// sign-bit mask with no branch to mispredict on noisy data.
func absDiff(r, x float64) float64 { return math.Abs(r - x) }

// sumAbsDiff adds |recon[f] - truth[f]| over one step to sum and truth[f]
// to truthSum, in feature order.
func sumAbsDiff(sum, truthSum float64, recon, truth []float64) (float64, float64) {
	truth = truth[:len(recon)]
	for f, x := range truth {
		sum += absDiff(recon[f], x)
		truthSum += x
	}
	return sum, truthSum
}

// MAE returns the mean absolute error between a reconstruction and the true
// sequence, averaged over every time step and feature.
func MAE(recon, truth [][]float64) (float64, error) {
	if len(recon) != len(truth) {
		return 0, fmt.Errorf("reconstruct: MAE length mismatch %d vs %d", len(recon), len(truth))
	}
	var sum float64
	var n int
	for t := range truth {
		if len(recon[t]) != len(truth[t]) {
			return 0, fmt.Errorf("reconstruct: MAE width mismatch at step %d", t)
		}
		for f := range truth[t] {
			sum += absDiff(recon[t][f], truth[t][f])
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// SequenceStdDev returns the population standard deviation of all values in
// a sequence, the per-sequence weight of Table 5's metric. It makes
// stats.PopStdDev's two passes — the mean, then the squared deviations —
// over the rows in place, so the result is bit-identical to PopStdDev of
// the flattened sequence without building it.
//
//age:hotpath
func SequenceStdDev(seq [][]float64) float64 {
	var sum float64
	n := 0
	for _, row := range seq {
		for _, x := range row {
			sum += x
		}
		n += len(row)
	}
	return stdDevAbout(seq, sum, n)
}

// stdDevAbout is SequenceStdDev's second pass: the population standard
// deviation of seq's n values, given their sum in row order.
func stdDevAbout(seq [][]float64, sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	m := sum / float64(n)
	var s float64
	for _, row := range seq {
		for _, x := range row {
			d := x - m
			s += d * d
		}
	}
	return math.Sqrt(s / float64(n))
}

// Accumulator aggregates per-sequence errors into the evaluation's two
// metrics: plain mean MAE and deviation-weighted MAE.
type Accumulator struct {
	sumMAE      float64
	sumWeighted float64
	sumWeights  float64
	count       int
}

// Add records one sequence's MAE with the weight of its true-value standard
// deviation.
func (a *Accumulator) Add(mae, weight float64) {
	a.sumMAE += mae
	a.sumWeighted += mae * weight
	a.sumWeights += weight
	a.count++
}

// MAE returns the arithmetic mean of the recorded per-sequence MAEs.
func (a *Accumulator) MAE() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sumMAE / float64(a.count)
}

// WeightedMAE returns the deviation-weighted mean MAE (Table 5): each
// sequence's error weighted by the standard deviation of its measurements.
// When every recorded weight is zero — all-flat sequences, whose std-dev
// weight is 0 — the weighted average is undefined; it falls back to the
// plain MAE rather than silently reporting a perfect 0.
func (a *Accumulator) WeightedMAE() float64 {
	if a.sumWeights == 0 {
		return a.MAE()
	}
	return a.sumWeighted / a.sumWeights
}

// Count returns the number of recorded sequences.
func (a *Accumulator) Count() int { return a.count }
