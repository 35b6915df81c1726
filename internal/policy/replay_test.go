package policy

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/rnn"
)

// oracleSample is the Skip RNN's decision loop as it was before the replay
// walk: a cold start over GRU.Forward at one bias.
func oracleSample(pred *rnn.Predictor, gate *rnn.Gate, bias float64, seq [][]float64) []int {
	if len(seq) == 0 {
		return nil
	}
	h := make([]float64, pred.GRU.Hidden)
	h, _ = pred.GRU.Forward(pred.Normalize(seq[0]), h)
	idx := []int{0}
	last := 0
	for t := 1; t < len(seq); t++ {
		if gate.Logit(h, t-last)+bias >= 0 {
			h, _ = pred.GRU.Forward(pred.Normalize(seq[t]), h)
			idx = append(idx, t)
			last = t
		}
	}
	return idx
}

// oracleFitBias is FitBias as it was before the replay walk: the same
// bisection, with every rate from cold-start walks.
func oracleFitBias(m *SkipRNNModel, train [][][]float64, targetRate float64) FitResult {
	rate := func(bias float64) float64 {
		var collected, total int
		for _, seq := range train {
			collected += len(oracleSample(m.Pred, m.Gate, bias, seq))
			total += len(seq)
		}
		return float64(collected) / float64(total)
	}
	lo, hi := -30.0, 30.0
	if rate(lo) >= targetRate {
		return FitResult{Threshold: lo, AchievedRate: rate(lo)}
	}
	if rate(hi) <= targetRate {
		return FitResult{Threshold: hi, AchievedRate: rate(hi)}
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if rate(mid) < targetRate {
			lo = mid
		} else {
			hi = mid
		}
	}
	bias := (lo + hi) / 2
	return FitResult{Threshold: bias, AchievedRate: rate(bias)}
}

// TestFitBiasMatchesOracle: replayed fitting returns the oracle's bias and
// rate bit for bit at every budget of the evaluation grid (0.3..1.0, as
// experiments.DefaultRates) on models trained on two datasets.
func TestFitBiasMatchesOracle(t *testing.T) {
	for _, name := range []string{"epilepsy", "activity"} {
		m, train, _ := trainedOn(t, name)
		for r := 3; r <= 10; r++ {
			rate := float64(r) / 10
			p, got := m.FitBias(train, rate)
			want := oracleFitBias(m, train, rate)
			if math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) ||
				math.Float64bits(got.AchievedRate) != math.Float64bits(want.AchievedRate) ||
				math.Float64bits(p.Bias()) != math.Float64bits(want.Threshold) {
				t.Errorf("%s rate %g: FitBias %+v (policy bias %g), oracle %+v", name, rate, got, p.Bias(), want)
			}
		}
	}
}

// TestBiasFitterConcurrent: goroutines sharing one fitter, each fitting
// every budget in its own order, get the bits a one-shot FitBias gets.
func TestBiasFitterConcurrent(t *testing.T) {
	m, train, _ := trainedModel(t)
	var rates []float64
	for r := 3; r <= 10; r++ {
		rates = append(rates, float64(r)/10)
	}
	f := m.NewBiasFitter(train)
	got := make([][]FitResult, 4)
	biases := make([][]float64, len(got))
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]FitResult, len(rates))
		biases[g] = make([]float64, len(rates))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rates {
				r := (i + 3*g) % len(rates)
				if g%2 == 1 {
					r = len(rates) - 1 - r
				}
				p, fit := f.Fit(rates[r])
				got[g][r], biases[g][r] = fit, p.Bias()
			}
		}()
	}
	wg.Wait()
	for r, rate := range rates {
		p, want := m.FitBias(train, rate)
		for g := range got {
			if math.Float64bits(got[g][r].Threshold) != math.Float64bits(want.Threshold) ||
				math.Float64bits(got[g][r].AchievedRate) != math.Float64bits(want.AchievedRate) ||
				math.Float64bits(biases[g][r]) != math.Float64bits(p.Bias()) {
				t.Errorf("rate %g goroutine %d: fitter %+v (bias %g), FitBias %+v", rate, g, got[g][r], biases[g][r], want)
			}
		}
	}
}

// TestSkipRNNReplayShuffledBiases: a walk replayed through biases in any
// order, not only bisection order, collects what a cold start collects.
func TestSkipRNNReplayShuffledBiases(t *testing.T) {
	m, train, _ := trainedModel(t)
	rng := rand.New(rand.NewSource(5))
	biases := []float64{-30, 30, 0, 0, -1e-9, 1e-9}
	for i := 0; i < 40; i++ {
		biases = append(biases, 8*rng.NormFloat64())
	}
	rng.Shuffle(len(biases), func(i, j int) { biases[i], biases[j] = biases[j], biases[i] })
	for si, seq := range train[:6] {
		w := newSkipWalk(m.Pred, seq)
		for _, bias := range biases {
			w.replay(m.Gate, bias)
			want := oracleSample(m.Pred, m.Gate, bias, seq)
			if !slices.Equal(w.idx, want) {
				t.Fatalf("seq %d bias %g: replay %v, oracle %v", si, bias, w.idx, want)
			}
			if got := NewSkipRNN(m.Pred, m.Gate, bias).Sample(seq, nil); !slices.Equal(got, want) {
				t.Fatalf("seq %d bias %g: Sample %v, oracle %v", si, bias, got, want)
			}
		}
	}
}

// TestSkipRNNReplayAllocs: replaying a walk allocates nothing, whether no
// decision flips or the GRU reruns from a flipped one.
func TestSkipRNNReplayAllocs(t *testing.T) {
	m, train, _ := trainedModel(t)
	r := m.newReplay(train)
	r.rate(0.5)
	if n := testing.AllocsPerRun(20, func() { r.rate(0.5) }); n != 0 {
		t.Errorf("replay with no flipped decision allocates %v times, want 0", n)
	}
	bias := 1.0
	if n := testing.AllocsPerRun(20, func() { bias = -bias; r.rate(bias) }); n != 0 {
		t.Errorf("replay with flipped decisions allocates %v times, want 0", n)
	}
}

// TestSkipRNNSampleAllocs: Sample borrows its walk from a pool, so a warm
// call allocates only the index slice it returns.
func TestSkipRNNSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m, train, _ := trainedModel(t)
	p := NewSkipRNN(m.Pred, m.Gate, 0)
	for _, seq := range train {
		p.Sample(seq, nil)
	}
	i := 0
	if n := testing.AllocsPerRun(50, func() { sinkIdx = p.Sample(train[i%len(train)], nil); i++ }); n != 1 {
		t.Errorf("Sample allocates %v times, want 1", n)
	}
}

// FuzzSkipRNNReplay: after every bias in a fuzzed list, a replayed walk over
// a fuzzed sequence collects exactly what Sample, and the pre-replay loop,
// collect at that bias.
func FuzzSkipRNNReplay(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	pred := rnn.NewPredictor(2, 5, rng)
	gate := &rnn.Gate{W: make([]float64, 5), B: -0.5, Kappa: 0.25}
	for i := range gate.W {
		gate.W[i] = 2 * rng.NormFloat64()
	}
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 10, 246, 4, 0})
	f.Add([]byte{23, 200, 17, 90, 3, 128, 255, 0, 64, 32, 1})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		T := 1 + int(data[0])%24
		data = data[1:]
		seq := make([][]float64, T)
		for i := range seq {
			seq[i] = make([]float64, 2)
			for j := range seq[i] {
				if len(data) > 0 {
					seq[i][j] = float64(int8(data[0])) / 16
					data = data[1:]
				}
			}
		}
		w := newSkipWalk(pred, seq)
		for _, b := range data {
			bias := float64(int8(b)) / 8
			w.replay(gate, bias)
			want := NewSkipRNN(pred, gate, bias).Sample(seq, nil)
			if len(w.idx) != len(want) || !slices.Equal(w.idx, want) {
				t.Fatalf("bias %g: replay collected %v, Sample %v", bias, w.idx, want)
			}
			if oracle := oracleSample(pred, gate, bias, seq); !slices.Equal(want, oracle) {
				t.Fatalf("bias %g: Sample %v, oracle %v", bias, want, oracle)
			}
		}
	})
}

// Benchmark results land in package-level sinks so the compiler keeps the
// measured calls.
var (
	sinkIdx []int
	sinkFit FitResult
)

func BenchmarkSkipRNNSample(b *testing.B) {
	m, train, _ := trainedModel(b)
	p := NewSkipRNN(m.Pred, m.Gate, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIdx = p.Sample(train[i%len(train)], nil)
	}
}

func BenchmarkFitBias(b *testing.B) {
	m, train, _ := trainedModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sinkFit = m.FitBias(train, 0.5)
	}
}

// BenchmarkFitBiasGrid fits the evaluation grid's eight budgets on one
// fitter, as a workload does.
func BenchmarkFitBiasGrid(b *testing.B) {
	m, train, _ := trainedModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := m.NewBiasFitter(train)
		for r := 3; r <= 10; r++ {
			_, sinkFit = f.Fit(float64(r) / 10)
		}
	}
}
