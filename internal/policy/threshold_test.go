package policy

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// oracleLinear is Linear.Sample as it was before the replay walk.
func oracleLinear(th float64, seq [][]float64, _ *rand.Rand) []int {
	T := len(seq)
	if T == 0 {
		return nil
	}
	idx := []int{0}
	period := 1
	prev := seq[0]
	for t := period; t < T; {
		cur := seq[t]
		idx = append(idx, t)
		if l1(cur, prev) > th {
			period = 1
		} else if period < 16 {
			period++
		}
		prev = cur
		t += period
	}
	return idx
}

// oracleDeviation is Deviation.Sample as it was before the replay walk.
func oracleDeviation(th float64, seq [][]float64, _ *rand.Rand) []int {
	T := len(seq)
	if T == 0 {
		return nil
	}
	// The weights are float64 variables, as Deviation's fields were, so
	// 1-gamma rounds at run time (0.30000000000000004); untyped constants
	// would fold it exactly to 0.3 and move dev by an ulp.
	var gamma, beta float64 = 0.7, 0.3
	const maxPeriod = 4
	nf := len(seq[0])
	mean := append([]float64(nil), seq[0]...)
	dev := 0.0
	idx := []int{0}
	period := 1
	for t := period; t < T; {
		cur := seq[t]
		idx = append(idx, t)
		var dist float64
		for f := 0; f < nf; f++ {
			dist += math.Abs(cur[f] - mean[f])
		}
		dev = (1-gamma)*dev + gamma*dist
		for f := 0; f < nf; f++ {
			mean[f] = (1-beta)*mean[f] + beta*cur[f]
		}
		if dev > th {
			period = maxInt(1, period/2)
		} else {
			period = minInt(maxPeriod, period*2)
		}
		t += period
	}
	return idx
}

func oracleThreshold(kind AdaptiveKind, th float64, seq [][]float64, rng *rand.Rand) []int {
	if kind == KindLinear {
		return oracleLinear(th, seq, rng)
	}
	return oracleDeviation(th, seq, rng)
}

// oracleFit is Fit as it was before the replay walk: the same bisection,
// with every rate from cold-start walks and a fresh RNG per midpoint.
func oracleFit(kind AdaptiveKind, train [][][]float64, targetRate float64) FitResult {
	hi := 1e-9
	for _, seq := range train {
		for t := 1; t < len(seq); t++ {
			if d := l1(seq[t], seq[t-1]); d > hi {
				hi = d
			}
		}
	}
	hi *= float64(len(train[0][0]))
	lo := 0.0
	rate := func(th float64) float64 {
		rng := rand.New(rand.NewSource(1))
		var collected, total int
		for _, seq := range train {
			collected += len(oracleThreshold(kind, th, seq, rng))
			total += len(seq)
		}
		return float64(collected) / float64(total)
	}
	if rate(hi) >= targetRate {
		return FitResult{Threshold: hi, AchievedRate: rate(hi)}
	}
	if rate(lo) <= targetRate {
		return FitResult{Threshold: lo, AchievedRate: rate(lo)}
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if rate(mid) > targetRate {
			lo = mid
		} else {
			hi = mid
		}
	}
	th := (lo + hi) / 2
	return FitResult{Threshold: th, AchievedRate: rate(th)}
}

// randomTrain returns n random-walk sequences of length 8..71 with d
// features and bursts of volatility, so fits see varied step sizes.
func randomTrain(rng *rand.Rand, n, d int) [][][]float64 {
	train := make([][][]float64, n)
	for i := range train {
		seq := make([][]float64, 8+rng.Intn(64))
		scale := math.Exp(2 * rng.NormFloat64())
		x := make([]float64, d)
		for t := range seq {
			if rng.Intn(10) == 0 {
				scale = math.Exp(2 * rng.NormFloat64())
			}
			for f := range x {
				x[f] += scale * rng.NormFloat64()
			}
			seq[t] = append([]float64(nil), x...)
		}
		train[i] = seq
	}
	return train
}

func trainOf(name string, n int) [][][]float64 {
	d := dataset.MustLoad(name, dataset.Options{Seed: 7, MaxSequences: n})
	var train [][][]float64
	for _, s := range d.Sequences {
		train = append(train, s.Values)
	}
	return train
}

// TestFitMatchesOracle: replayed fitting returns the oracle's threshold and
// rate bit for bit, for both kinds at every budget of the evaluation grid
// (0.3..1.0, as experiments.DefaultRates), on two datasets' training sets
// and on random sequences.
func TestFitMatchesOracle(t *testing.T) {
	sets := map[string][][][]float64{
		"epilepsy": trainOf("epilepsy", 48),
		"activity": trainOf("activity", 48),
		"random":   randomTrain(rand.New(rand.NewSource(3)), 24, 3),
	}
	for name, train := range sets {
		for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
			for r := 3; r <= 10; r++ {
				rate := float64(r) / 10
				got, err := Fit(kind, train, rate)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleFit(kind, train, rate)
				if math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) ||
					math.Float64bits(got.AchievedRate) != math.Float64bits(want.AchievedRate) {
					t.Errorf("%s %s rate %g: Fit %+v, oracle %+v", name, kind, rate, got, want)
				}
			}
		}
	}
}

// TestThresholdReplayShuffled: a walk replayed through thresholds in any
// order, not only bisection order, collects what a fresh Sample and the
// pre-replay loop collect.
func TestThresholdReplayShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := append(trainOf("epilepsy", 8), randomTrain(rng, 8, 2)...)
	for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
		r, err := newThresholdReplay(kind, train)
		if err != nil {
			t.Fatal(err)
		}
		ths := []float64{0, 0, 1e-9, math.Inf(1), 0.5}
		for i := 0; i < 60; i++ {
			ths = append(ths, math.Exp(3*rng.NormFloat64()))
		}
		rng.Shuffle(len(ths), func(i, j int) { ths[i], ths[j] = ths[j], ths[i] })
		for _, th := range ths {
			p, _ := NewAdaptive(kind, th)
			for si, w := range r.walks {
				r.p.replay(w, th)
				want := p.Sample(w.seq, nil)
				if !slices.Equal(w.idx, want) {
					t.Fatalf("%s seq %d threshold %g: replay %v, Sample %v", kind, si, th, w.idx, want)
				}
				if oracle := oracleThreshold(kind, th, w.seq, nil); !slices.Equal(want, oracle) {
					t.Fatalf("%s seq %d threshold %g: Sample %v, oracle %v", kind, si, th, want, oracle)
				}
			}
		}
	}
}

// TestThresholdReplayAllocs: replaying warmed walks allocates nothing,
// whether no decision flips or the walk resumes from a flipped one.
func TestThresholdReplayAllocs(t *testing.T) {
	train := trainOf("epilepsy", 24)
	for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
		r, err := newThresholdReplay(kind, train)
		if err != nil {
			t.Fatal(err)
		}
		r.rate(0.5)
		if n := testing.AllocsPerRun(20, func() { r.rate(0.5) }); n != 0 {
			t.Errorf("%s: replay with no flipped decision allocates %v times, want 0", kind, n)
		}
		th := 0.1
		if n := testing.AllocsPerRun(20, func() { th = 2.1 - th; r.rate(th) }); n != 0 {
			t.Errorf("%s: replay with flipped decisions allocates %v times, want 0", kind, n)
		}
	}
}

// TestFitRatesMatchesFit: one FitRates call over many targets returns, for
// every target, the bits of a fresh single-target Fit, whatever the targets'
// order, with duplicates, and with targets that clamp at either end.
func TestFitRatesMatchesFit(t *testing.T) {
	sets := map[string][][][]float64{
		"epilepsy": trainOf("epilepsy", 48),
		"random":   randomTrain(rand.New(rand.NewSource(4)), 16, 3),
	}
	var asc []float64
	for r := 3; r <= 10; r++ {
		asc = append(asc, float64(r)/10)
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	shuffled := slices.Clone(asc)
	rand.New(rand.NewSource(8)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	orders := map[string][]float64{
		"ascending":  asc,
		"descending": desc,
		"shuffled":   shuffled,
		"duplicates": {0.5, 0.7, 0.5, 0.3, 0.7, 0.7},
		"clamped":    {-1, 0, 1e-9, 0.45, 1, 1.5},
	}
	for name, train := range sets {
		for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
			for order, targets := range orders {
				got, err := FitRates(kind, train, targets)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(targets) {
					t.Fatalf("%s %s %s: %d results for %d targets", name, kind, order, len(got), len(targets))
				}
				for i, target := range targets {
					want, err := Fit(kind, train, target)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got[i].Threshold) != math.Float64bits(want.Threshold) ||
						math.Float64bits(got[i].AchievedRate) != math.Float64bits(want.AchievedRate) {
						t.Errorf("%s %s %s target %g: FitRates %+v, Fit %+v", name, kind, order, target, got[i], want)
					}
				}
			}
		}
	}
}

// TestThresholdSampleAllocs: Sample borrows its walk from a pool, so a warm
// call allocates only the index slice it returns.
func TestThresholdSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	train := trainOf("epilepsy", 8)
	for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
		p, _ := NewAdaptive(kind, 0.3)
		for _, seq := range train {
			p.Sample(seq, nil)
		}
		i := 0
		if n := testing.AllocsPerRun(50, func() { sinkIdx = p.Sample(train[i%len(train)], nil); i++ }); n != 1 {
			t.Errorf("%s: Sample allocates %v times, want 1", kind, n)
		}
	}
}

func TestLinearEmptySequence(t *testing.T) {
	if got := NewLinear(1).Sample(nil, nil); got != nil {
		t.Errorf("empty sequence gave %v", got)
	}
}

func TestFitEmptyFirstSequence(t *testing.T) {
	train := [][][]float64{{}, volatileSeq(20, 2)}
	for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
		if _, err := Fit(kind, train, 0.5); err == nil {
			t.Errorf("%s: empty first training sequence accepted", kind)
		}
	}
}

// FuzzThresholdReplay: after every threshold in a fuzzed list, a replayed
// walk over a fuzzed sequence collects exactly what Sample, and the
// pre-replay loop, collect at that threshold, for both kinds.
func FuzzThresholdReplay(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 10, 246, 4, 0})
	f.Add([]byte{40, 200, 17, 90, 3, 128, 255, 0, 64, 32, 1, 7, 7, 7, 7, 90, 2, 30, 1})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		T := 1 + int(data[0])%48
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
		for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
			r, err := newThresholdReplay(kind, [][][]float64{seq})
			if err != nil {
				t.Fatal(err)
			}
			w := r.walks[0]
			for _, b := range data {
				th := float64(b) / 32
				r.p.replay(w, th)
				p, _ := NewAdaptive(kind, th)
				want := p.Sample(seq, nil)
				if len(w.idx) != len(want) || !slices.Equal(w.idx, want) {
					t.Fatalf("%s threshold %g: replay collected %v, Sample %v", kind, th, w.idx, want)
				}
				if oracle := oracleThreshold(kind, th, seq, nil); !slices.Equal(want, oracle) {
					t.Fatalf("%s threshold %g: Sample %v, oracle %v", kind, th, want, oracle)
				}
			}
		}
	})
}

func BenchmarkFit(b *testing.B) {
	train := trainOf("epilepsy", 48)
	for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Fit(kind, train, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				sinkFit = res
			}
		})
	}
}

func BenchmarkFitRates(b *testing.B) {
	train := trainOf("epilepsy", 48)
	var rates []float64
	for r := 3; r <= 10; r++ {
		rates = append(rates, float64(r)/10)
	}
	for _, kind := range []AdaptiveKind{KindLinear, KindDeviation} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := FitRates(kind, train, rates)
				if err != nil {
					b.Fatal(err)
				}
				sinkFit = res[0]
			}
		})
	}
}
