package policy

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/rnn"
)

// SkipRNN is the neural adaptive policy of §5.5 (Campos et al. [22]): a
// recurrent model that learns when to sample. The trained GRU predictor's
// hidden state feeds a logistic gate; the gate fires (collect) when recent
// dynamics suggest the next measurement will be surprising. A per-budget
// bias shifts the gate's operating point to hit a target collection rate,
// and a gap ramp bounds how long the policy can skip.
//
// The paper uses pre-trained TensorFlow Skip RNNs; this reproduction trains
// the model in-process (internal/rnn) — see DESIGN.md §4.
type SkipRNN struct {
	pred *rnn.Predictor
	gate *rnn.Gate
	bias float64
}

// NewSkipRNN wraps a trained predictor and gate with a rate bias.
func NewSkipRNN(pred *rnn.Predictor, gate *rnn.Gate, bias float64) *SkipRNN {
	return &SkipRNN{pred: pred, gate: gate, bias: bias}
}

// Bias returns the fitted rate-adjustment bias.
func (s *SkipRNN) Bias() float64 { return s.bias }

// WithBias returns a copy of the policy using a different rate bias; the
// underlying model is shared.
func (s *SkipRNN) WithBias(bias float64) *SkipRNN {
	return &SkipRNN{pred: s.pred, gate: s.gate, bias: bias}
}

// Sample implements Policy. The policy is causal: the GRU state only
// advances on measurements the policy chose to collect, so skipped values
// are never observed. It never reads rng.
func (s *SkipRNN) Sample(seq [][]float64, _ *rand.Rand) []int {
	if len(seq) == 0 {
		return nil
	}
	w := skipWalkPool.Get().(*skipWalk)
	w.reset(s.pred, seq, make([]int, 0, len(seq)))
	w.replay(s.gate, s.bias)
	idx := w.idx
	w.pred, w.seq, w.idx = nil, nil, nil
	skipWalkPool.Put(w)
	return idx
}

// skipWalkPool holds the walks Sample borrows, so a Sample call allocates
// only the collected steps it returns.
var skipWalkPool = sync.Pool{New: func() any { return new(skipWalk) }}

// skipWalk is the Skip RNN's walk over one sequence at the last bias it was
// replayed at: the gate logit every step saw and the GRU state after every
// collection. Bias enters the walk only through logit + bias >= 0, and the
// logit at step t depends only on the decisions before t, so the walk at a
// new bias is the stored walk up to the first step whose decision flips.
type skipWalk struct {
	pred *rnn.Predictor
	seq  [][]float64
	// logit[t] is the gate logit step t saw (t >= 1).
	logit []float64
	// idx lists the collected steps; idx[0] is the anchor step 0.
	idx []int
	// states[k*H:(k+1)*H] is the GRU state after k collections, so
	// states[:H] is the zero initial state.
	states []float64
	x      []float64
	sc     *rnn.GRUScratch
}

// newSkipWalk returns an empty walk over a non-empty seq with room for every
// step, so replays never allocate.
func newSkipWalk(pred *rnn.Predictor, seq [][]float64) *skipWalk {
	w := &skipWalk{}
	w.reset(pred, seq, make([]int, 0, len(seq)))
	return w
}

// reset empties w for a cold start of pred over seq, with idx (empty,
// capacity len(seq)) as its collection list. It keeps the logits, states,
// input and scratch when they are large enough: a cold start writes every
// logit and every state after the initial one before it reads them, and
// Step overwrites the scratch. The initial state and the input start at
// zero, as in a fresh walk.
func (w *skipWalk) reset(pred *rnn.Predictor, seq [][]float64, idx []int) {
	H := pred.GRU.Hidden
	w.pred, w.seq, w.idx = pred, seq, idx
	w.logit = resize(w.logit, len(seq))
	w.states = resize(w.states, (len(seq)+1)*H)
	clear(w.states[:H])
	w.x = resize(w.x, len(pred.Mean))
	clear(w.x)
	if w.sc == nil || len(w.sc.Z) != H {
		w.sc = pred.GRU.NewScratch()
	}
}

// replay moves the walk to bias. It re-checks the stored decisions with the
// decision expression and reruns the GRU only from the first one that
// flips; an empty walk is a cold start that always collects step 0 (the
// interpolation anchor). The result is exactly the walk a cold start at bias
// would take: the steps before the first flip see the same states, by
// induction over t.
func (w *skipWalk) replay(gate *rnn.Gate, bias float64) {
	H := w.pred.GRU.Hidden
	t, k := 1, 1 // next step, collections so far
	if len(w.idx) == 0 {
		w.collect(0, 0)
	} else {
		for ; t < len(w.seq); t++ {
			taken := k < len(w.idx) && w.idx[k] == t
			if (w.logit[t]+bias >= 0) != taken {
				break
			}
			if taken {
				k++
			}
		}
		w.idx = w.idx[:k]
	}
	for ; t < len(w.seq); t++ {
		w.logit[t] = gate.Logit(w.states[k*H:(k+1)*H], t-w.idx[k-1])
		if w.logit[t]+bias >= 0 {
			w.collect(t, k)
			k++
		}
	}
}

// collect advances the GRU state after k collections by step t.
func (w *skipWalk) collect(t, k int) {
	H := w.pred.GRU.Hidden
	w.pred.NormalizeInto(w.x, w.seq[t])
	w.pred.GRU.Step(w.x, w.states[k*H:(k+1)*H], w.states[(k+1)*H:(k+2)*H], w.sc)
	w.idx = append(w.idx, t)
}

// SkipRNNModel bundles a trained Skip RNN so one training run serves every
// budget (only the bias changes per rate).
type SkipRNNModel struct {
	Pred *rnn.Predictor
	Gate *rnn.Gate
}

// SkipRNNTrainConfig controls Skip RNN training.
type SkipRNNTrainConfig struct {
	Hidden     int
	Epochs     int
	GateEpochs int
	Seed       int64
}

// DefaultSkipRNNTrainConfig returns a configuration that trains in seconds
// on the evaluation workloads.
func DefaultSkipRNNTrainConfig() SkipRNNTrainConfig {
	return SkipRNNTrainConfig{Hidden: 12, Epochs: 3, GateEpochs: 2, Seed: 1}
}

// TrainSkipRNN trains the predictor and gate on the training sequences.
func TrainSkipRNN(train [][][]float64, cfg SkipRNNTrainConfig) (*SkipRNNModel, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("policy: empty Skip RNN training set")
	}
	if len(train[0]) == 0 {
		return nil, fmt.Errorf("policy: empty training sequence")
	}
	d := len(train[0][0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	pred := rnn.NewPredictor(d, cfg.Hidden, rng)
	tc := rnn.DefaultTrainConfig()
	tc.Epochs = cfg.Epochs
	tc.Seed = cfg.Seed
	if _, err := pred.Train(train, tc); err != nil {
		return nil, err
	}
	gate := rnn.TrainGate(pred, train, cfg.GateEpochs, 0.05, cfg.Seed)
	return &SkipRNNModel{Pred: pred, Gate: gate}, nil
}

// FitBias bisects for the gate bias at which the Skip RNN's mean collection
// rate over train matches targetRate. The rate is monotone non-decreasing in
// the bias. It is a one-shot BiasFitter.
func (m *SkipRNNModel) FitBias(train [][][]float64, targetRate float64) (*SkipRNN, FitResult) {
	return m.NewBiasFitter(train).Fit(targetRate)
}

// BiasFitter fits the gate bias for any number of target rates over one
// training set. Each Fit runs its own bisection, exactly as a lone FitBias
// would, but every probe's rate comes from one memo shared across the
// fits, keyed by the probe's bits. The rate at a bias is a pure function of
// (model, train, bias), and a replayed walk collects what a cold start
// collects (see skipWalk), so a memo hit is the rate a fresh probe would
// measure and every result is bit for bit the lone fit's. Bisections of
// different rates share their first probes, where an early flipped
// decision reruns the GRU over most of a sequence. Fit is safe for
// concurrent use.
type BiasFitter struct {
	m     *SkipRNNModel
	train [][][]float64
	// mu guards memo only; probes run outside the lock.
	mu   sync.Mutex
	memo map[uint64]float64
}

// NewBiasFitter returns a fitter over train with an empty memo.
func (m *SkipRNNModel) NewBiasFitter(train [][][]float64) *BiasFitter {
	return &BiasFitter{m: m, train: train, memo: map[uint64]float64{}}
}

// Fit bisects for the bias whose rate matches targetRate. The call keeps its
// own walks, allocated on its first memo miss, so fits of different rates
// run in parallel; two calls that miss the same probe both measure it and
// store the same rate.
func (f *BiasFitter) Fit(targetRate float64) (*SkipRNN, FitResult) {
	var r *skipReplay
	rate := func(bias float64) float64 {
		key := math.Float64bits(bias)
		f.mu.Lock()
		v, ok := f.memo[key]
		f.mu.Unlock()
		if ok {
			return v
		}
		if r == nil {
			r = f.m.newReplay(f.train)
		}
		v = r.rate(bias)
		f.mu.Lock()
		f.memo[key] = v
		f.mu.Unlock()
		return v
	}
	m := f.m
	lo, hi := -30.0, 30.0
	if rate(lo) >= targetRate {
		return NewSkipRNN(m.Pred, m.Gate, lo), FitResult{Threshold: lo, AchievedRate: rate(lo)}
	}
	if rate(hi) <= targetRate {
		return NewSkipRNN(m.Pred, m.Gate, hi), FitResult{Threshold: hi, AchievedRate: rate(hi)}
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
	return NewSkipRNN(m.Pred, m.Gate, bias), FitResult{Threshold: bias, AchievedRate: rate(bias)}
}

// skipReplay holds one walk per training sequence for the span of one
// BiasFitter.Fit call, so the model itself stays immutable and shareable.
type skipReplay struct {
	gate  *rnn.Gate
	walks []*skipWalk
	total int
}

func (m *SkipRNNModel) newReplay(train [][][]float64) *skipReplay {
	r := &skipReplay{gate: m.Gate}
	for _, seq := range train {
		r.total += len(seq)
		if len(seq) > 0 {
			r.walks = append(r.walks, newSkipWalk(m.Pred, seq))
		}
	}
	return r
}

// rate returns the mean collection rate over the training set at bias.
func (r *skipReplay) rate(bias float64) float64 {
	var collected int
	for _, w := range r.walks {
		w.replay(r.gate, bias)
		collected += len(w.idx)
	}
	return float64(collected) / float64(r.total)
}
