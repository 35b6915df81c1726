package reconstruct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearInterpolatesBetweenPoints(t *testing.T) {
	recon, err := Linear([]int{0, 4}, [][]float64{{0}, {4}}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 5; tt++ {
		if recon[tt][0] != float64(tt) {
			t.Errorf("recon[%d] = %g, want %d", tt, recon[tt][0], tt)
		}
	}
}

func TestLinearHoldsEnds(t *testing.T) {
	recon, err := Linear([]int{2, 3}, [][]float64{{5, -1}, {7, 1}}, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 2; tt++ {
		if recon[tt][0] != 5 || recon[tt][1] != -1 {
			t.Errorf("head not held at step %d: %v", tt, recon[tt])
		}
	}
	for tt := 3; tt < 6; tt++ {
		if recon[tt][0] != 7 || recon[tt][1] != 1 {
			t.Errorf("tail not held at step %d: %v", tt, recon[tt])
		}
	}
}

func TestLinearFullCollectionExact(t *testing.T) {
	// Collecting everything reconstructs exactly.
	truth := [][]float64{{1, 2}, {-3, 0.5}, {2.5, 2.5}}
	idx := []int{0, 1, 2}
	recon, err := Linear(idx, truth, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mae, err := MAE(recon, truth)
	if err != nil {
		t.Fatal(err)
	}
	if mae != 0 {
		t.Errorf("full collection MAE = %g", mae)
	}
}

func TestLinearEmptyBatch(t *testing.T) {
	recon, err := Linear(nil, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range recon {
		for _, v := range row {
			if v != 0 {
				t.Fatal("empty batch should reconstruct to zeros")
			}
		}
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := Linear([]int{0}, nil, 4, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Linear([]int{3, 1}, [][]float64{{1}, {2}}, 4, 1); err == nil {
		t.Error("unsorted indices accepted")
	}
	if _, err := Linear([]int{9}, [][]float64{{1}}, 4, 1); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := Linear([]int{0}, [][]float64{{1, 2}}, 4, 1); err == nil {
		t.Error("wrong feature count accepted")
	}
}

func TestMAEKnownValue(t *testing.T) {
	a := [][]float64{{0, 0}, {1, 1}}
	b := [][]float64{{1, 0}, {1, 3}}
	mae, err := MAE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mae != 0.75 { // (1+0+0+2)/4
		t.Errorf("MAE = %g, want 0.75", mae)
	}
}

func TestMAEMismatch(t *testing.T) {
	if _, err := MAE([][]float64{{1}}, [][]float64{{1}, {2}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := MAE([][]float64{{1}}, [][]float64{{1, 2}}); err == nil {
		t.Error("width mismatch accepted")
	}
}

// TestMoreSamplesNeverWorse: on any sequence, adding a collected point can
// only reduce (or keep) the interpolation MAE at the collected point itself.
func TestMoreSamplesLowerErrorOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	T, d := 40, 2
	truth := make([][]float64, T)
	for tt := range truth {
		truth[tt] = []float64{math.Sin(0.4 * float64(tt)), rng.NormFloat64()}
	}
	maeAt := func(k int) float64 {
		idx := make([]int, 0, k)
		step := T / k
		for i := 0; i < k; i++ {
			idx = append(idx, i*step)
		}
		vals := make([][]float64, len(idx))
		for i, ix := range idx {
			vals[i] = truth[ix]
		}
		recon, err := Linear(idx, vals, T, d)
		if err != nil {
			t.Fatal(err)
		}
		mae, err := MAE(recon, truth)
		if err != nil {
			t.Fatal(err)
		}
		return mae
	}
	if maeAt(20) >= maeAt(5) {
		t.Errorf("denser sampling not better: k=20 %g vs k=5 %g", maeAt(20), maeAt(5))
	}
}

func TestSequenceStdDev(t *testing.T) {
	if got := SequenceStdDev([][]float64{{2}, {4}, {4}, {4}, {5}, {5}, {7}, {9}}); math.Abs(got-2) > 1e-12 {
		t.Errorf("std = %g, want 2", got)
	}
	if got := SequenceStdDev(nil); got != 0 {
		t.Errorf("empty std = %g", got)
	}
}

func TestAccumulator(t *testing.T) {
	var acc Accumulator
	acc.Add(1.0, 2.0)
	acc.Add(3.0, 1.0)
	if got := acc.MAE(); got != 2 {
		t.Errorf("MAE = %g, want 2", got)
	}
	if got := acc.WeightedMAE(); math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("WeightedMAE = %g, want 5/3", got)
	}
	if acc.Count() != 2 {
		t.Errorf("Count = %d", acc.Count())
	}
	var empty Accumulator
	if empty.MAE() != 0 || empty.WeightedMAE() != 0 {
		t.Error("empty accumulator should return 0")
	}
}

// TestLinearPropertyBounded: interpolated values never exceed the range of
// the collected values (convexity of linear interpolation).
func TestLinearPropertyBounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		T := rng.Intn(30) + 2
		k := rng.Intn(T) + 1
		perm := rng.Perm(T)[:k]
		idx := append([]int(nil), perm...)
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		vals := make([][]float64, k)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range vals {
			v := rng.NormFloat64() * 5
			vals[i] = []float64{v}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		recon, err := Linear(idx, vals, T, 1)
		if err != nil {
			return false
		}
		for _, row := range recon {
			if row[0] < lo-1e-9 || row[0] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// benchBatch is a 206×3 window collected at every other step.
func benchBatch() (indices []int, values, truth [][]float64, T, d int) {
	T, d = 206, 3
	for t := 0; t < T; t += 2 {
		indices = append(indices, t)
		values = append(values, []float64{1, 2, 3})
	}
	truth = matrix(T, d, func(r, c int) float64 { return float64(r%7) - float64(c) })
	return indices, values, truth, T, d
}

// TestLinearAllocs pins Linear's allocations: the row table and the one
// backing array its rows are carved from, whatever T is.
func TestLinearAllocs(t *testing.T) {
	idx, vals, _, T, d := benchBatch()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Linear(idx, vals, T, d); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("Linear allocs/op = %v, want 2", n)
	}
}

func BenchmarkLinearReconstruct(b *testing.B) {
	idx, vals, _, T, d := benchBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Linear(idx, vals, T, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearMAE(b *testing.B) {
	indices, values, truth, T, d := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LinearMAE(indices, values, truth, T, d); err != nil {
			b.Fatal(err)
		}
	}
}

// noisyWindow is a perfbench-shaped window: T=50 steps of six sine
// features plus uniform noise, collected at every 4th step with a little
// measurement noise. Unlike benchBatch's periodic data, the sign of each
// reconstruction error is unpredictable from step to step.
func noisyWindow() (indices []int, values, truth [][]float64, T, d int) {
	T, d = 50, 6
	rng := rand.New(rand.NewSource(1))
	truth = matrix(T, d, func(r, c int) float64 {
		return 4*math.Sin(2*math.Pi*float64(r)/float64(T)+float64(c)) + (rng.Float64()-0.5)*0.8
	})
	for t := 1; t < T; t += 4 {
		indices = append(indices, t)
		values = append(values, matrix(1, d, func(_, c int) float64 {
			return truth[t][c] + (rng.Float64()-0.5)*0.05
		})[0])
	}
	return indices, values, truth, T, d
}

// weightSink keeps the benchmarks' weights live.
var weightSink float64

// BenchmarkLinearMAEStdDev is the mae fold's per-record scoring: the
// fused kernel on a perfbench-shaped window.
func BenchmarkLinearMAEStdDev(b *testing.B) {
	indices, values, truth, T, d := noisyWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, w, err := LinearMAEStdDev(indices, values, truth, T, d)
		if err != nil {
			b.Fatal(err)
		}
		weightSink = w
	}
}

// BenchmarkLinearMAEThenStdDev is the same scoring as two calls, the
// baseline BenchmarkLinearMAEStdDev compares against.
func BenchmarkLinearMAEThenStdDev(b *testing.B) {
	indices, values, truth, T, d := noisyWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LinearMAE(indices, values, truth, T, d); err != nil {
			b.Fatal(err)
		}
		weightSink = SequenceStdDev(truth)
	}
}

// TestWeightedMAEFlatSequences covers the all-flat and mixed weight cases:
// a flat sequence has zero std-dev weight, and an accumulator holding only
// flat sequences used to report a silently perfect weighted MAE of 0.
func TestWeightedMAEFlatSequences(t *testing.T) {
	cases := []struct {
		name    string
		maes    []float64
		weights []float64
		want    float64
	}{
		// Every weight zero: fall back to the plain MAE instead of 0.
		{"all flat", []float64{0.5, 0.3}, []float64{0, 0}, 0.4},
		{"single flat", []float64{0.8}, []float64{0}, 0.8},
		// Mixed: zero-weight sequences drop out of the weighted average.
		{"mixed", []float64{0.5, 0.3}, []float64{0, 2}, 0.3},
		{"weighted", []float64{0.1, 0.4}, []float64{1, 3}, (0.1 + 1.2) / 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var acc Accumulator
			for i := range tc.maes {
				acc.Add(tc.maes[i], tc.weights[i])
			}
			if got := acc.WeightedMAE(); math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("WeightedMAE = %g, want %g", got, tc.want)
			}
		})
	}
	// Empty accumulator: both metrics are 0 by convention.
	var empty Accumulator
	if got := empty.WeightedMAE(); got != 0 {
		t.Errorf("empty WeightedMAE = %g, want 0", got)
	}
}

// TestLinearDegenerateShapes pins head/tail hold behavior for the smallest
// sequences the projections replay: T == 1 and a lone collected index inside
// a longer window. The projections depend on this holding steady.
func TestLinearDegenerateShapes(t *testing.T) {
	t.Run("T=1 single index", func(t *testing.T) {
		recon, err := Linear([]int{0}, [][]float64{{3.5, -1}}, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(recon) != 1 || recon[0][0] != 3.5 || recon[0][1] != -1 {
			t.Fatalf("recon = %v", recon)
		}
	})
	t.Run("T=1 empty batch is zeros", func(t *testing.T) {
		recon, err := Linear(nil, nil, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(recon) != 1 || recon[0][0] != 0 || recon[0][1] != 0 {
			t.Fatalf("recon = %v", recon)
		}
	})
	t.Run("lone interior index holds both ways", func(t *testing.T) {
		recon, err := Linear([]int{2}, [][]float64{{7}}, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		for step, row := range recon {
			if row[0] != 7 {
				t.Fatalf("step %d = %g, want held 7", step, row[0])
			}
		}
	})
	t.Run("lone final index back-fills the head", func(t *testing.T) {
		recon, err := Linear([]int{4}, [][]float64{{2}}, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		for step, row := range recon {
			if row[0] != 2 {
				t.Fatalf("step %d = %g, want held 2", step, row[0])
			}
		}
	})
	t.Run("T=1 out-of-range index rejected", func(t *testing.T) {
		if _, err := Linear([]int{1}, [][]float64{{1}}, 1, 1); err == nil {
			t.Fatal("want error for index 1 with T=1")
		}
	})
}
