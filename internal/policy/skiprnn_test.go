package policy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// trainedModel trains a small Skip RNN on an Epilepsy slice once per test.
func trainedModel(t testing.TB) (*SkipRNNModel, [][][]float64, *dataset.Dataset) {
	return trainedOn(t, "epilepsy")
}

// trainedOn trains a small Skip RNN on the first 16 sequences of a
// 32-sequence slice of the named dataset.
func trainedOn(t testing.TB, name string) (*SkipRNNModel, [][][]float64, *dataset.Dataset) {
	t.Helper()
	d := dataset.MustLoad(name, dataset.Options{Seed: 13, MaxSequences: 32})
	var train [][][]float64
	for _, s := range d.Sequences[:16] {
		train = append(train, s.Values)
	}
	cfg := SkipRNNTrainConfig{Hidden: 6, Epochs: 1, GateEpochs: 1, Seed: 1}
	m, err := TrainSkipRNN(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, train, d
}

func TestTrainSkipRNNErrors(t *testing.T) {
	cfg := DefaultSkipRNNTrainConfig()
	if _, err := TrainSkipRNN(nil, cfg); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := TrainSkipRNN([][][]float64{{}}, cfg); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestSkipRNNValidIndices(t *testing.T) {
	m, train, _ := trainedModel(t)
	p := NewSkipRNN(m.Pred, m.Gate, 0)
	rng := rand.New(rand.NewSource(1))
	for _, seq := range train[:4] {
		idx := p.Sample(seq, rng)
		checkIndices(t, idx, len(seq))
		if len(idx) == 0 || idx[0] != 0 {
			t.Fatalf("first index must be 0, got %v", idx[:minLen(idx, 3)])
		}
	}
	if got := p.Sample(nil, rng); got != nil {
		t.Errorf("empty sequence gave %v", got)
	}
}

func TestSkipRNNBiasMonotone(t *testing.T) {
	m, train, _ := trainedModel(t)
	rng := rand.New(rand.NewSource(2))
	count := func(bias float64) int {
		p := NewSkipRNN(m.Pred, m.Gate, bias)
		total := 0
		for _, seq := range train[:6] {
			total += len(p.Sample(seq, rng))
		}
		return total
	}
	lo, mid, hi := count(-10), count(0), count(10)
	if !(lo <= mid && mid <= hi) {
		t.Errorf("collection count not monotone in bias: %d, %d, %d", lo, mid, hi)
	}
	if lo == hi {
		t.Error("bias has no effect on collection count")
	}
}

func TestSkipRNNFitBiasHitsRate(t *testing.T) {
	m, train, _ := trainedModel(t)
	for _, rate := range []float64{0.4, 0.8} {
		_, fit := m.FitBias(train, rate)
		if math.Abs(fit.AchievedRate-rate) > 0.1 {
			t.Errorf("rate %g: achieved %g (bias %g)", rate, fit.AchievedRate, fit.Threshold)
		}
	}
}

func TestSkipRNNWithBiasSharesModel(t *testing.T) {
	m, _, _ := trainedModel(t)
	p := NewSkipRNN(m.Pred, m.Gate, 1)
	q := p.WithBias(-1)
	if q.Bias() != -1 || p.Bias() != 1 {
		t.Errorf("biases: p=%g q=%g", p.Bias(), q.Bias())
	}
	if q.pred != p.pred || q.gate != p.gate {
		t.Error("WithBias copied the model")
	}
}

// TestSkipRNNDataDependence: the trained policy must collect different
// counts for calm vs violent events — the leakage §5.5 demonstrates.
func TestSkipRNNDataDependence(t *testing.T) {
	m, train, d := trainedModel(t)
	p, _ := m.FitBias(train, 0.6)
	rng := rand.New(rand.NewSource(3))
	counts := map[int][]float64{}
	for _, s := range d.Sequences {
		counts[s.Label] = append(counts[s.Label], float64(len(p.Sample(s.Values, rng))))
	}
	mean := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	walking, running := mean(counts[1]), mean(counts[2])
	if running <= walking {
		t.Errorf("skip RNN collected %.1f for running vs %.1f for walking; expected data dependence",
			running, walking)
	}
}

// TestSkipRNNCausality: the policy's decisions must not depend on values it
// never collected. Perturbing an uncollected step must not change the
// decisions before that step.
func TestSkipRNNCausality(t *testing.T) {
	m, train, _ := trainedModel(t)
	p := NewSkipRNN(m.Pred, m.Gate, 0)
	rng := rand.New(rand.NewSource(4))
	seq := train[0]
	idx := p.Sample(seq, rng)
	collected := map[int]bool{}
	for _, i := range idx {
		collected[i] = true
	}
	// Find an uncollected step and perturb it.
	perturbAt := -1
	for t := 1; t < len(seq); t++ {
		if !collected[t] {
			perturbAt = t
			break
		}
	}
	if perturbAt == -1 {
		t.Skip("policy collected everything at bias 0")
	}
	mod := make([][]float64, len(seq))
	for i := range seq {
		row := append([]float64(nil), seq[i]...)
		if i == perturbAt {
			for f := range row {
				row[f] += 100
			}
		}
		mod[i] = row
	}
	idx2 := p.Sample(mod, rng)
	// Decisions up to perturbAt must be identical.
	for i := 0; i < len(idx) && i < len(idx2); i++ {
		if idx[i] > perturbAt || idx2[i] > perturbAt {
			break
		}
		if idx[i] != idx2[i] {
			t.Fatalf("decision before the perturbation changed: %v vs %v", idx[:i+1], idx2[:i+1])
		}
	}
}

func minLen(a []int, n int) int {
	if len(a) < n {
		return len(a)
	}
	return n
}
