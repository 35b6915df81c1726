package policy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// flatSeq returns a constant sequence, volatileSeq a fast-swinging one.
func flatSeq(T, d int) [][]float64 {
	seq := make([][]float64, T)
	for t := range seq {
		seq[t] = make([]float64, d)
	}
	return seq
}

func volatileSeq(T, d int) [][]float64 {
	seq := make([][]float64, T)
	for t := range seq {
		seq[t] = make([]float64, d)
		for f := range seq[t] {
			seq[t][f] = 3 * math.Sin(float64(t)*2.1+float64(f))
		}
	}
	return seq
}

func checkIndices(t *testing.T, idx []int, T int) {
	t.Helper()
	prev := -1
	for _, i := range idx {
		if i <= prev || i >= T {
			t.Fatalf("indices %v not strictly increasing in [0, %d)", idx, T)
		}
		prev = i
	}
}

func TestUniformExactCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rate := range []float64{0.3, 0.5, 0.7, 1.0} {
		for _, T := range []int{23, 50, 206} {
			u := NewUniform(rate)
			idx := u.Sample(flatSeq(T, 2), rng)
			want := int(rate * float64(T))
			if want < 1 {
				want = 1
			}
			if len(idx) != want {
				t.Errorf("rate %g T %d: collected %d, want %d", rate, T, len(idx), want)
			}
			checkIndices(t, idx, T)
		}
	}
}

func TestUniformDataIndependent(t *testing.T) {
	// The Uniform policy's count must not depend on the data — that is
	// why it leaks nothing.
	rng := rand.New(rand.NewSource(2))
	u := NewUniform(0.6)
	a := u.Sample(flatSeq(50, 3), rng)
	b := u.Sample(volatileSeq(50, 3), rng)
	if len(a) != len(b) {
		t.Errorf("Uniform count varies with data: %d vs %d", len(a), len(b))
	}
}

func TestRandomExactCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRandom(0.7)
	idx := r.Sample(flatSeq(25, 1), rng)
	if len(idx) != 17 {
		t.Errorf("collected %d, want 17 (the paper's Figure 1 example)", len(idx))
	}
	checkIndices(t, idx, 25)
}

func TestLinearAdaptsToVolatility(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(0.5)
	flat := l.Sample(flatSeq(50, 3), rng)
	vol := l.Sample(volatileSeq(50, 3), rng)
	if len(vol) <= len(flat) {
		t.Errorf("Linear collected %d on volatile vs %d on flat; should over-sample volatility", len(vol), len(flat))
	}
	checkIndices(t, flat, 50)
	checkIndices(t, vol, 50)
}

func TestLinearThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seq := volatileSeq(100, 2)
	prev := 101
	for _, th := range []float64{0, 0.5, 2, 8, 100} {
		n := len(NewLinear(th).Sample(seq, rng))
		if n > prev {
			t.Fatalf("collection count increased with threshold at %g", th)
		}
		prev = n
	}
}

func TestLinearZeroThresholdCollectsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	idx := NewLinear(0).Sample(volatileSeq(40, 1), rng)
	if len(idx) != 40 {
		t.Errorf("threshold 0 collected %d of 40", len(idx))
	}
}

func TestDeviationAdaptsToVolatility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDeviation(0.4)
	flat := d.Sample(flatSeq(50, 3), rng)
	vol := d.Sample(volatileSeq(50, 3), rng)
	if len(vol) <= len(flat) {
		t.Errorf("Deviation collected %d on volatile vs %d on flat", len(vol), len(flat))
	}
	checkIndices(t, flat, 50)
	checkIndices(t, vol, 50)
}

func TestDeviationPeriodDoubling(t *testing.T) {
	// On a flat sequence the period doubles each step — 0, 1, 3, 7 —
	// then advances at the maxPeriod cap of 4.
	rng := rand.New(rand.NewSource(8))
	idx := NewDeviation(1).Sample(flatSeq(64, 1), rng)
	want := []int{0, 1, 3, 7, 11, 15, 19, 23, 27, 31, 35, 39, 43, 47, 51, 55, 59, 63}
	if len(idx) != len(want) {
		t.Fatalf("indices %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("indices %v, want %v", idx, want)
		}
	}
}

func TestDeviationEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if got := NewDeviation(1).Sample(nil, rng); got != nil {
		t.Errorf("empty sequence gave %v", got)
	}
}

func TestFitHitsTargetRate(t *testing.T) {
	d := dataset.MustLoad("epilepsy", dataset.Options{Seed: 7, MaxSequences: 24})
	var train [][][]float64
	for _, s := range d.Sequences {
		train = append(train, s.Values)
	}
	for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
		for _, rate := range []float64{0.4, 0.7} {
			res, err := Fit(kind, train, rate)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.AchievedRate-rate) > 0.08 {
				t.Errorf("%s rate %g: achieved %g (threshold %g)", kind, rate, res.AchievedRate, res.Threshold)
			}
		}
	}
}

func TestFitRatesMonotoneThresholds(t *testing.T) {
	d := dataset.MustLoad("activity", dataset.Options{Seed: 7, MaxSequences: 36})
	var train [][][]float64
	for _, s := range d.Sequences {
		train = append(train, s.Values)
	}
	var rates []float64
	for r := 3; r <= 10; r++ {
		rates = append(rates, float64(r)/10)
	}
	grid, err := FitRates(KindLinear, train, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 8 {
		t.Fatalf("grid has %d entries", len(grid))
	}
	// Higher target rates need lower thresholds.
	prev := math.Inf(1)
	for i, res := range grid {
		if res.Threshold > prev+1e-9 {
			t.Errorf("threshold not non-increasing at rate %g", rates[i])
		}
		prev = res.Threshold
	}
}

func TestFitEmptyTraining(t *testing.T) {
	if _, err := Fit(KindLinear, nil, 0.5); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestNewAdaptiveUnknownKind(t *testing.T) {
	if _, err := NewAdaptive("mystery", 1); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestAdaptiveLeaksCollectionRate is the paper's §3.2 observation as a unit
// test: adaptive policies collect different counts for different events.
func TestAdaptiveLeaksCollectionRate(t *testing.T) {
	d := dataset.MustLoad("epilepsy", dataset.Options{Seed: 11, MaxSequences: 40})
	var train [][][]float64
	for _, s := range d.Sequences {
		train = append(train, s.Values)
	}
	res, err := Fit(KindLinear, train, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLinear(res.Threshold)
	rng := rand.New(rand.NewSource(10))
	counts := map[int][]float64{}
	for _, s := range d.Sequences {
		counts[s.Label] = append(counts[s.Label], float64(len(l.Sample(s.Values, rng))))
	}
	walking, running := counts[1], counts[2]
	var mw, mr float64
	for _, c := range walking {
		mw += c
	}
	for _, c := range running {
		mr += c
	}
	mw /= float64(len(walking))
	mr /= float64(len(running))
	if mr <= mw*1.2 {
		t.Errorf("running mean count %g not clearly above walking %g; no leakage to protect against", mr, mw)
	}
}

func BenchmarkLinearSample(b *testing.B) {
	seq := volatileSeq(206, 3)
	l := NewLinear(1.5)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Sample(seq, rng)
	}
}

func BenchmarkDeviationSample(b *testing.B) {
	seq := volatileSeq(206, 3)
	d := NewDeviation(0.8)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(seq, rng)
	}
}
