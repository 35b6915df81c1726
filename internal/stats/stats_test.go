package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g", got)
	}
	if got := PopStdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("PopStdDev = %g, want 2", got)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if got := Median(xs); got != 4.5 {
		t.Errorf("Median = %g", got)
	}
	if got := Max(xs); got != 9 {
		t.Errorf("Max = %g", got)
	}
	if got := Min(xs); got != 2 {
		t.Errorf("Min = %g", got)
	}
}

func TestEmptySlices(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || Median(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-slice statistics should all be 0")
	}
	if Entropy(nil) != 0 {
		t.Error("Entropy(nil) != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := IQR(xs); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("IQR = %g", got)
	}
	// Quantile must not mutate its input.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]int{1, 1, 1}); got != 0 {
		t.Errorf("constant entropy = %g", got)
	}
	if got := Entropy([]int{0, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("fair coin entropy = %g, want 1", got)
	}
	if got := Entropy([]int{0, 1, 2, 3}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("uniform-4 entropy = %g, want 2", got)
	}
}

func TestMutualInformationIdentical(t *testing.T) {
	xs := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	// I(X;X) = H(X)
	if got, want := MutualInformation(xs, xs), Entropy(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("I(X;X) = %g, want H(X) = %g", got, want)
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// A perfectly balanced independent pairing has exactly zero MI.
	var xs, ys []int
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			xs = append(xs, i)
			ys = append(ys, j)
		}
	}
	if got := MutualInformation(xs, ys); !almostEqual(got, 0, 1e-12) {
		t.Errorf("independent MI = %g, want 0", got)
	}
}

func TestNMIRange(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%50) + 2
		xs := make([]int, m)
		ys := make([]int, m)
		for i := range xs {
			xs[i] = rng.Intn(4)
			ys[i] = rng.Intn(6)
		}
		v := NMI(xs, ys)
		return v >= 0 && v <= 1+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNMIConstantSizeIsZero(t *testing.T) {
	// The AGE guarantee: if every message has the same size, NMI is zero
	// regardless of the label distribution.
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
	sizes := []int{500, 500, 500, 500, 500, 500, 500, 500}
	if got := NMI(labels, sizes); got != 0 {
		t.Errorf("NMI with constant sizes = %g, want 0", got)
	}
}

func TestNMIPerfectLeakage(t *testing.T) {
	// Message size a deterministic, invertible function of the label.
	labels := []int{0, 1, 2, 0, 1, 2}
	sizes := []int{100, 200, 300, 100, 200, 300}
	if got := NMI(labels, sizes); !almostEqual(got, 1, 1e-12) {
		t.Errorf("NMI with perfect leakage = %g, want 1", got)
	}
}

func TestPermutationTestDetectsDependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := make([]int, 200)
	sizes := make([]int, 200)
	for i := range labels {
		labels[i] = i % 2
		sizes[i] = 100 + labels[i]*50 + rng.Intn(5)
	}
	// The paper uses 15000 permutations so that the full 95% CI can fall
	// below alpha = 0.01 (§5.3); fewer permutations leave the CI too wide.
	res := PermutationTestNMI(labels, sizes, 15000, rng)
	if !res.Significant(0.01) {
		t.Errorf("dependent data not significant: p=%g ci=[%g,%g]", res.PValue, res.CILow, res.CIHigh)
	}
}

func TestPermutationTestIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := make([]int, 200)
	sizes := make([]int, 200)
	for i := range labels {
		labels[i] = rng.Intn(2)
		sizes[i] = 100 + rng.Intn(5)
	}
	res := PermutationTestNMI(labels, sizes, 500, rng)
	if res.Significant(0.01) {
		t.Errorf("independent data flagged significant: p=%g", res.PValue)
	}
}

func TestWelchTTestEqualSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	res := WelchTTest(a, a)
	if !almostEqual(res.T, 0, 1e-12) || res.P < 0.99 {
		t.Errorf("identical samples: t=%g p=%g", res.T, res.P)
	}
}

func TestWelchTTestSeparatedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = 100 + rng.NormFloat64()
		b[i] = 110 + rng.NormFloat64()
	}
	res := WelchTTest(a, b)
	if res.P > 1e-6 {
		t.Errorf("separated samples p=%g, want tiny", res.P)
	}
	if res.T > 0 {
		t.Errorf("t should be negative for mean(a) < mean(b), got %g", res.T)
	}
}

func TestWelchTTestKnownValue(t *testing.T) {
	// Reference values computed independently (hand formula): t = -2.8353,
	// df = 27.71, two-sided p ~ 0.0085.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0, 23.9}
	res := WelchTTest(a, b)
	if !almostEqual(res.T, -2.8353, 0.001) {
		t.Errorf("t = %g, want -2.8353", res.T)
	}
	if !almostEqual(res.DF, 27.71, 0.05) {
		t.Errorf("df = %g, want 27.71", res.DF)
	}
	if !almostEqual(res.P, 0.0085, 0.001) {
		t.Errorf("p = %g, want about 0.0085", res.P)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	if res := WelchTTest([]float64{1}, []float64{2, 3, 4}); res.P != 1 {
		t.Errorf("tiny sample p = %g, want 1", res.P)
	}
	// Zero variance, different means: certainly different.
	res := WelchTTest([]float64{5, 5, 5}, []float64{9, 9, 9})
	if res.P != 0 {
		t.Errorf("zero-variance different means p = %g, want 0", res.P)
	}
	res = WelchTTest([]float64{5, 5, 5}, []float64{5, 5, 5})
	if res.P != 1 {
		t.Errorf("zero-variance same means p = %g, want 1", res.P)
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := regIncBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%g(1,1) = %g", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := regIncBeta(2.5, 3.5, 0.3) + regIncBeta(3.5, 2.5, 0.7); !almostEqual(got, 1, 1e-10) {
		t.Errorf("symmetry violated: %g", got)
	}
}

func TestStudentTSF(t *testing.T) {
	// Known: P(T > 2.0) for df=10 is about 0.0367 (one-sided).
	if got := studentTSF(2.0, 10); !almostEqual(got, 0.0367, 0.001) {
		t.Errorf("studentTSF(2,10) = %g", got)
	}
	// Large df approaches the normal tail: P(Z > 1.96) ~ 0.025.
	if got := studentTSF(1.96, 10000); !almostEqual(got, 0.025, 0.001) {
		t.Errorf("studentTSF(1.96,1e4) = %g", got)
	}
}

func BenchmarkNMI(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	labels := make([]int, 1000)
	sizes := make([]int, 1000)
	for i := range labels {
		labels[i] = rng.Intn(4)
		sizes[i] = rng.Intn(100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NMI(labels, sizes)
	}
}

// BenchmarkPermutationTestNMI times 100 permutations of BenchmarkNMI's
// table, the loop Table 6 runs for each cell.
func BenchmarkPermutationTestNMI(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	labels := make([]int, 1000)
	sizes := make([]int, 1000)
	for i := range labels {
		labels[i] = rng.Intn(4)
		sizes[i] = rng.Intn(100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PermutationTestNMI(labels, sizes, 100, rng)
	}
}

func BenchmarkWelchTTest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 500)
	y := make([]float64, 500)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()+0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = WelchTTest(x, y)
	}
}

// TestQuantileEdgeCases pins the quantile machinery's behavior on the inputs
// the live projections feed it: single-element slices and slices containing
// NaN. Go's sort.Float64s orders NaNs before every real number, so a NaN
// shifts the order statistics left; these tests record that behavior so a
// future "fix" is a deliberate decision, not an accident.
func TestQuantileEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64 // NaN means "expect NaN"
	}{
		{"single q0", []float64{7}, 0, 7},
		{"single q0.5", []float64{7}, 0.5, 7},
		{"single q1", []float64{7}, 1, 7},
		{"single negative q clamps", []float64{7}, -0.3, 7},
		{"single q>1 clamps", []float64{7}, 1.7, 7},
		{"empty", nil, 0.5, 0},
		{"two-element median interpolates", []float64{1, 3}, 0.5, 2},
		// NaN sorts first: [NaN 1 2], pos = 0.5*2 = 1 → s[1] = 1.
		{"nan median picks real value", []float64{1, nan, 2}, 0.5, 1},
		// q=0 lands exactly on the NaN.
		{"nan q0 is nan", []float64{1, nan, 2}, 0, nan},
		// Interpolating against a NaN neighbor poisons the result:
		// pos = 0.25*2 = 0.5 interpolates s[0]=NaN with s[1]=1.
		{"nan q0.25 interpolates to nan", []float64{1, nan, 2}, 0.25, nan},
		{"all nan", []float64{nan, nan}, 0.5, nan},
		{"single nan", []float64{nan}, 0.5, nan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Quantile(tc.xs, tc.q)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Fatalf("Quantile(%v, %v) = %g, want NaN", tc.xs, tc.q, got)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("Quantile(%v, %v) = %g, want %g", tc.xs, tc.q, got, tc.want)
			}
		})
	}
}

func TestMedianIQREdgeCases(t *testing.T) {
	if got := Median([]float64{42}); got != 42 {
		t.Errorf("Median([42]) = %g", got)
	}
	if got := IQR([]float64{42}); got != 0 {
		t.Errorf("IQR([42]) = %g, want 0", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %g, want 0", got)
	}
	if got := IQR(nil); got != 0 {
		t.Errorf("IQR(nil) = %g, want 0", got)
	}
	// A NaN in the sample poisons IQR whenever either quartile touches it.
	if got := IQR([]float64{math.NaN(), 1, 2, 3}); !math.IsNaN(got) {
		t.Errorf("IQR with NaN = %g, want NaN", got)
	}
	// Median of an even-length all-real slice stays finite even with a NaN
	// present elsewhere in the order statistics.
	if got := Median([]float64{math.NaN(), 1, 5, 9}); got != 3 {
		t.Errorf("Median([NaN 1 5 9]) = %g, want 3", got)
	}
}

// TestEntropyCountsMatchesEntropy checks the incremental count form against
// the slice form on random data, bit for bit: both sum in ascending value
// order.
func TestEntropyCountsMatchesEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		labels := make([]int, n)
		counts := map[int]int64{}
		for i := range labels {
			labels[i] = rng.Intn(6)
			counts[labels[i]]++
		}
		if got, want := EntropyCounts(counts), Entropy(labels); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EntropyCounts = %v, Entropy = %v", got, want)
		}
	}
	if got := EntropyCounts(nil); got != 0 {
		t.Errorf("EntropyCounts(nil) = %g", got)
	}
	// Non-positive counts are ignored, not treated as observations.
	if got := EntropyCounts(map[int]int64{1: 0, 2: -3, 3: 8}); got != 0 {
		t.Errorf("EntropyCounts with only one positive bucket = %g, want 0", got)
	}
}

// TestNMICountsMatchesNMI checks the joint-count form against the paired
// slice form on random data, bit for bit: both sum the same table in the
// same rank order.
func TestNMICountsMatchesNMI(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(300)
		labels := make([]int, n)
		sizes := make([]int, n)
		joint := map[[2]int]int64{}
		for i := range labels {
			labels[i] = rng.Intn(4)
			// Correlate sizes with labels so NMI is not trivially 0.
			sizes[i] = labels[i]*10 + rng.Intn(12)
			joint[[2]int{labels[i], sizes[i]}]++
		}
		if got, want := NMICounts(joint), NMI(labels, sizes); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NMICounts = %v, NMI = %v", got, want)
		}
	}
	if got := NMICounts(nil); got != 0 {
		t.Errorf("NMICounts(nil) = %g", got)
	}
	// A constant marginal carries no information.
	if got := NMICounts(map[[2]int]int64{{1, 10}: 5, {1, 20}: 5}); got != 0 {
		t.Errorf("NMICounts with constant label marginal = %g, want 0", got)
	}
}
