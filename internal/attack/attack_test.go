package attack

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// separableData builds two Gaussian blobs per class along feature 0.
func separableData(rng *rand.Rand, n, numClasses int, gap float64) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = i % numClasses
		X[i] = []float64{float64(y[i])*gap + rng.NormFloat64(), rng.NormFloat64()}
	}
	return X, y
}

func TestTreePerfectSplit(t *testing.T) {
	X := [][]float64{{0}, {1}, {10}, {11}}
	y := []int{0, 0, 1, 1}
	w := []float64{1, 1, 1, 1}
	tree := TrainTree(X, y, w, 2, 3)
	for i := range X {
		if tree.Predict(X[i]) != y[i] {
			t.Errorf("sample %d misclassified", i)
		}
	}
	if tree.Depth() != 1 {
		t.Errorf("depth = %d, want 1", tree.Depth())
	}
}

func TestTreeDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := separableData(rng, 200, 2, 0.5) // overlapping: wants depth
	w := make([]float64, len(X))
	for i := range w {
		w[i] = 1
	}
	tree := TrainTree(X, y, w, 2, 2)
	if tree.Depth() > 2 {
		t.Errorf("depth %d exceeds limit 2", tree.Depth())
	}
	// Depth-0 is a bare majority leaf.
	stump := TrainTree(X, y, w, 2, 0)
	if stump.Depth() != 0 {
		t.Errorf("depth-0 tree has depth %d", stump.Depth())
	}
}

func TestTreeRespectsWeights(t *testing.T) {
	// Two identical feature values with conflicting labels: the heavier
	// weight wins the leaf.
	X := [][]float64{{1}, {1}}
	y := []int{0, 1}
	tree := TrainTree(X, y, []float64{0.1, 10}, 2, 2)
	if tree.Predict([]float64{1}) != 1 {
		t.Error("weighted majority ignored")
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tree := TrainTree(X, y, []float64{1, 1, 1}, 2, 5)
	if tree.Depth() != 0 {
		t.Errorf("pure node split anyway: depth %d", tree.Depth())
	}
}

func TestAdaBoostOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := separableData(rng, 600, 3, 6)
	model, err := TrainAdaBoost(X, y, 3, DefaultAdaBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(X, y); acc < 0.95 {
		t.Errorf("train accuracy %g on separable data", acc)
	}
}

func TestAdaBoostBeatsSingleStumpOnXOR(t *testing.T) {
	// XOR-ish pattern needs boosting: one stump cannot do better than 0.5.
	rng := rand.New(rand.NewSource(3))
	n := 400
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	model, err := TrainAdaBoost(X, y, 2, AdaBoostConfig{Rounds: 50, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(X, y); acc < 0.8 {
		t.Errorf("boosted accuracy %g on XOR", acc)
	}
}

func TestAdaBoostDegenerateInputs(t *testing.T) {
	if _, err := TrainAdaBoost(nil, nil, 2, DefaultAdaBoostConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := TrainAdaBoost([][]float64{{1}}, []int{0}, 1, DefaultAdaBoostConfig()); err == nil {
		t.Error("single class accepted")
	}
	// Constant features: model falls back to majority.
	X := [][]float64{{1}, {1}, {1}, {1}}
	y := []int{0, 0, 0, 1}
	model, err := TrainAdaBoost(X, y, 2, DefaultAdaBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	if model.Predict([]float64{1}) != 0 {
		t.Error("majority fallback failed")
	}
}

func TestWindowFeatures(t *testing.T) {
	f := WindowFeatures([]int{100, 100, 100, 100})
	if f[0] != 100 || f[1] != 100 || f[2] != 0 || f[3] != 0 {
		t.Errorf("constant window features = %v", f)
	}
	if len(f) != 4 {
		t.Errorf("feature count = %d, want 4 (mean, median, std, IQR)", len(f))
	}
}

func TestBuildSamplesProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sizesByLabel := map[int][]int{
		0: make([]int, 25), // 25% of observations
		1: make([]int, 75), // 75%
	}
	for i := range sizesByLabel[0] {
		sizesByLabel[0][i] = 500
	}
	for i := range sizesByLabel[1] {
		sizesByLabel[1][i] = 900
	}
	samples, err := BuildSamples(sizesByLabel, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1000 {
		t.Fatalf("got %d samples", len(samples))
	}
	var zero int
	for _, s := range samples {
		if s.Label == 0 {
			zero++
		}
	}
	if zero != 250 {
		t.Errorf("label 0 got %d samples, want 250 (proportional)", zero)
	}
}

func TestBuildSamplesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := BuildSamples(map[int][]int{}, 10, rng); err == nil {
		t.Error("empty size map accepted")
	}
	if _, err := BuildSamples(map[int][]int{0: {}}, 10, rng); err == nil {
		t.Error("label with no sizes accepted")
	}
}

func TestMajorityBaseline(t *testing.T) {
	samples := []Sample{{Label: 0}, {Label: 0}, {Label: 0}, {Label: 1}}
	if got := MajorityBaseline(samples); got != 0.75 {
		t.Errorf("majority = %g, want 0.75", got)
	}
	if got := MajorityBaseline(nil); got != 0 {
		t.Errorf("empty majority = %g", got)
	}
}

// TestAttackRecoversLeakyPolicy mirrors §5.4: if per-event size
// distributions are separated (a leaky adaptive policy), the attack should
// be near-perfect; if all sizes are identical (AGE), accuracy collapses to
// the majority baseline.
func TestAttackRecoversLeakyPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	leaky := map[int][]int{}
	for l := 0; l < 3; l++ {
		for i := 0; i < 120; i++ {
			leaky[l] = append(leaky[l], 400+l*200+rng.Intn(60))
		}
	}
	samples, err := BuildSamples(leaky, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CrossValidate(samples, 3, 5, DefaultAdaBoostConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy < 0.95 {
		t.Errorf("attack accuracy %g on leaky policy; want near-perfect", res.MeanAccuracy)
	}

	protected := map[int][]int{}
	for l := 0; l < 3; l++ {
		for i := 0; i < 120; i++ {
			protected[l] = append(protected[l], 512) // AGE: fixed length
		}
	}
	samples, err = BuildSamples(protected, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err = CrossValidate(samples, 3, 5, DefaultAdaBoostConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy > res.Majority+0.05 {
		t.Errorf("attack accuracy %g exceeds majority %g under fixed sizes", res.MeanAccuracy, res.Majority)
	}
}

func TestCrossValidateConfusionTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := map[int][]int{0: {100, 110}, 1: {500, 510}}
	samples, err := BuildSamples(sizes, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CrossValidate(samples, 2, 5, DefaultAdaBoostConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, row := range res.Confusion {
		for _, c := range row {
			total += c
		}
	}
	if total != len(samples) {
		t.Errorf("confusion covers %d, want %d", total, len(samples))
	}
	if len(res.FoldAccuracies) != 5 {
		t.Errorf("%d folds reported", len(res.FoldAccuracies))
	}
}

func TestCrossValidateErrors(t *testing.T) {
	// twoClass builds n valid samples alternating between labels 0 and 1.
	twoClass := func(n int) []Sample {
		s := make([]Sample, n)
		for i := range s {
			s[i] = Sample{Features: []float64{float64(i)}, Label: i % 2}
		}
		return s
	}
	cases := []struct {
		name       string
		samples    []Sample
		numClasses int
		k          int
		wantErr    string
	}{
		{"empty samples", nil, 2, 5, "cannot fill"},
		{"k below 2", twoClass(10), 2, 1, "need k >= 2"},
		{"k exceeds sample count", twoClass(3), 2, 5, "cannot fill 5 folds"},
		{"numClasses below 2", twoClass(10), 1, 5, "numClasses >= 2"},
		{"single-class samples", []Sample{
			{Features: []float64{1}, Label: 0}, {Features: []float64{2}, Label: 0},
			{Features: []float64{3}, Label: 0}, {Features: []float64{4}, Label: 0},
		}, 2, 2, "distinct label"},
		{"negative label", append(twoClass(10), Sample{Features: []float64{9}, Label: -1}), 2, 5, "outside [0, 2)"},
		{"label beyond numClasses", append(twoClass(10), Sample{Features: []float64{9}, Label: 2}), 2, 5, "outside [0, 2)"},
		{"label rarer than k", append(twoClass(10), Sample{Features: []float64{9}, Label: 2}), 3, 5, "fewer than k=5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			_, err := CrossValidate(tc.samples, tc.numClasses, tc.k, DefaultAdaBoostConfig(), rng)
			if err == nil {
				t.Fatal("invalid input accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCrossValidateNamesLowestRareLabel pins the "fewer than k" error to
// the lowest failing label, so its text does not depend on map order.
func TestCrossValidateNamesLowestRareLabel(t *testing.T) {
	var samples []Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, Sample{Features: []float64{float64(i)}, Label: 0})
	}
	samples = append(samples,
		Sample{Features: []float64{20}, Label: 3},
		Sample{Features: []float64{30}, Label: 5}, Sample{Features: []float64{31}, Label: 5})
	for call := 0; call < 50; call++ {
		_, err := CrossValidate(samples, 6, 5, DefaultAdaBoostConfig(), rand.New(rand.NewSource(8)))
		if err == nil || !strings.Contains(err.Error(), "label 3 has 1 sample(s)") {
			t.Fatalf("call %d: err = %v, want it to name label 3", call, err)
		}
	}
}

func TestSeizureScenario(t *testing.T) {
	// The Figure 7 shape: seizure (25%) vs other (75%), fully separated
	// sizes -> 100% accuracy; fixed sizes -> all predictions collapse to
	// the majority event and seizure recall is 0.
	rng := rand.New(rand.NewSource(9))
	leaky := map[int][]int{}
	for i := 0; i < 50; i++ {
		leaky[0] = append(leaky[0], 870+rng.Intn(100)) // seizure
	}
	for i := 0; i < 150; i++ {
		leaky[1] = append(leaky[1], 560+rng.Intn(60)) // other
	}
	samples, _ := BuildSamples(leaky, 400, rng)
	res, err := CrossValidate(samples, 2, 5, DefaultAdaBoostConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy < 0.99 {
		t.Errorf("seizure attack accuracy = %g, want ~1.0", res.MeanAccuracy)
	}
	if res.Confusion[0][1] != 0 || res.Confusion[1][0] != 0 {
		t.Errorf("confusion not diagonal: %v", res.Confusion)
	}

	fixed := map[int][]int{0: nil, 1: nil}
	for i := 0; i < 50; i++ {
		fixed[0] = append(fixed[0], 512)
	}
	for i := 0; i < 150; i++ {
		fixed[1] = append(fixed[1], 512)
	}
	samples, _ = BuildSamples(fixed, 400, rng)
	res, err = CrossValidate(samples, 2, 5, DefaultAdaBoostConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion[0][0] != 0 {
		t.Errorf("seizure predictions survived fixed sizes: %v", res.Confusion)
	}
	if math.Abs(res.MeanAccuracy-res.Majority) > 1e-9 {
		t.Errorf("accuracy %g != majority %g under AGE", res.MeanAccuracy, res.Majority)
	}
}

func BenchmarkAdaBoostTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sizes := map[int][]int{}
	for l := 0; l < 4; l++ {
		for i := 0; i < 100; i++ {
			sizes[l] = append(sizes[l], 400+l*150+rng.Intn(80))
		}
	}
	samples, _ := BuildSamples(sizes, 800, rng)
	X := make([][]float64, len(samples))
	y := make([]int, len(samples))
	for i, s := range samples {
		X[i], y[i] = s.Features, s.Label
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainAdaBoost(X, y, 4, DefaultAdaBoostConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
