package rnn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Predictor is a next-step sequence model: a GRU over normalized
// measurements with a linear readout predicting the next measurement. Its
// hidden state summarizes recent signal dynamics; the Skip RNN's sampling
// gate reads that state to decide whether the next step is worth collecting.
type Predictor struct {
	GRU *GRU
	Wo  *Mat // (d x hidden) readout
	Bo  []float64
	// Mean and Std normalize inputs per feature; both are fitted on the
	// training set.
	Mean, Std []float64
}

// NewPredictor returns an untrained predictor for d-feature inputs.
func NewPredictor(d, hidden int, rng *rand.Rand) *Predictor {
	p := &Predictor{
		GRU:  NewGRU(d, hidden, rng),
		Wo:   NewMatRandom(d, hidden, rng),
		Bo:   zeros(d),
		Mean: zeros(d),
		Std:  make([]float64, d),
	}
	for i := range p.Std {
		p.Std[i] = 1
	}
	return p
}

// FitNormalizer estimates per-feature mean and std from the training
// sequences.
func (p *Predictor) FitNormalizer(seqs [][][]float64) {
	d := len(p.Mean)
	var n float64
	sum := zeros(d)
	sumSq := zeros(d)
	for _, seq := range seqs {
		for _, row := range seq {
			for f := 0; f < d; f++ {
				sum[f] += row[f]
				sumSq[f] += row[f] * row[f]
			}
			n++
		}
	}
	if n == 0 {
		return
	}
	for f := 0; f < d; f++ {
		p.Mean[f] = sum[f] / n
		v := sumSq[f]/n - p.Mean[f]*p.Mean[f]
		if v < 1e-12 {
			v = 1e-12
		}
		p.Std[f] = math.Sqrt(v)
	}
}

// Normalize maps a raw measurement into model space.
func (p *Predictor) Normalize(x []float64) []float64 {
	out := make([]float64, len(x))
	p.NormalizeInto(out, x)
	return out
}

// NormalizeInto writes Normalize(x) into dst, which must be as long as x.
func (p *Predictor) NormalizeInto(dst, x []float64) {
	for i := range x {
		dst[i] = (x[i] - p.Mean[i]) / p.Std[i]
	}
}

// predictInto writes the readout of hidden state h (normalized space) into
// out.
func (p *Predictor) predictInto(out, h []float64) {
	p.Wo.MulVec(h, out)
	addVec(out, p.Bo)
}

// TrainConfig controls predictor training.
type TrainConfig struct {
	Epochs       int
	LearningRate float64
	ClipNorm     float64
	Seed         int64
}

// DefaultTrainConfig returns settings that converge on the synthetic
// workloads in a few seconds.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 4, LearningRate: 5e-3, ClipNorm: 5, Seed: 1}
}

// Train fits the predictor to minimize squared next-step prediction error
// with full backpropagation through time, one Adam step per sequence.
// It returns the mean training loss of the final epoch.
func (p *Predictor) Train(seqs [][][]float64, cfg TrainConfig) (float64, error) {
	if len(seqs) == 0 {
		return 0, fmt.Errorf("rnn: empty training set")
	}
	p.FitNormalizer(seqs)
	params := append(p.GRU.params(), p.Wo.Data, p.Bo)
	flatParams := flatten(params)
	opt := NewAdam(len(flatParams), cfg.LearningRate)
	rng := rand.New(rand.NewSource(cfg.Seed))
	longest := 0
	for _, seq := range seqs {
		longest = max(longest, len(seq))
	}
	ws := p.newBPTT(longest)
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := rng.Perm(len(seqs))
		var total float64
		var steps int
		for _, si := range order {
			seq := seqs[si]
			if len(seq) < 2 {
				continue
			}
			total += p.sequenceGrads(seq, ws)
			steps += len(seq) - 1
			clipGrads(ws.grads, cfg.ClipNorm)
			opt.Step(flatParams, ws.grads)
			// Write updated parameters back into the model; flatParams
			// is the optimizer's source of truth.
			unflatten(flatParams, params)
		}
		if steps > 0 {
			lastLoss = total / float64(steps)
		}
	}
	return lastLoss, nil
}

// bptt is the workspace of one Train call: every buffer sequenceGrads
// needs, sized for the longest training sequence, so training allocates
// nothing per sequence or per step. Train drops it on return; the model
// keeps none of it.
type bptt struct {
	d, H  int
	norm  []float64 // T x d normalized inputs
	hs    []float64 // T x H: rows t and t+1 are step t's hPrev and h; row 0 is the zero state
	gates []float64 // (T-1) x 4H: step t's Z|R|C|RH
	preds []float64 // (T-1) x d: the prediction of row t+1 from step t's h
	tmp   []float64 // 2H, Step's tmp, shared by every step
	dy    []float64
	// dh and dhPrev swap each step: dh is the gradient into step t's
	// output, and backward writes the gradient into its input over dhPrev
	// (and into x over dx, which training does not use).
	dh, dhPrev, dx []float64
	back           backScratch
	// grads holds every gradient flat in Train's parameter order (GRU
	// params, Wo, Bo); gr, dWo and dBo are views into it.
	grads []float64
	gr    *GRUGrads
	dWo   *Mat
	dBo   []float64
}

// newBPTT returns a workspace for sequences of up to T steps.
func (p *Predictor) newBPTT(T int) *bptt {
	d, H := len(p.Mean), p.GRU.Hidden
	T = max(T, 1)
	ws := &bptt{
		d: d, H: H,
		norm: zeros(T * d), hs: zeros(T * H), gates: zeros((T - 1) * 4 * H), preds: zeros((T - 1) * d),
		tmp: zeros(2 * H), dy: zeros(d), dh: zeros(H), dhPrev: zeros(H), dx: zeros(d), back: newBackScratch(H),
		grads: zeros(p.GRU.numParams() + len(p.Wo.Data) + len(p.Bo)),
	}
	buf := ws.grads
	ws.gr = p.GRU.gradsOver(&buf)
	ws.dWo = matOver(&buf, p.Wo.Rows, p.Wo.Cols)
	ws.dBo = carve(&buf, len(p.Bo))
	return ws
}

// cache returns step t's cache as views into the workspace.
func (ws *bptt) cache(t int) GRUCache {
	d, H := ws.d, ws.H
	return GRUCache{
		X:          ws.norm[t*d : (t+1)*d],
		HPrev:      ws.hs[t*H : (t+1)*H],
		H:          ws.hs[(t+1)*H : (t+2)*H],
		GRUScratch: scratchOver(ws.gates[t*4*H:(t+1)*4*H], ws.tmp, H),
	}
}

// sequenceGrads runs one forward+backward pass over a sequence of at least
// two steps, leaving the summed gradients in ws.grads and returning the
// summed loss.
func (p *Predictor) sequenceGrads(seq [][]float64, ws *bptt) float64 {
	d := ws.d
	for t, row := range seq {
		p.NormalizeInto(ws.norm[t*d:(t+1)*d], row)
	}
	clear(ws.hs[:ws.H])
	var loss float64
	for t := 0; t < len(seq)-1; t++ {
		c := ws.cache(t)
		p.GRU.Step(c.X, c.HPrev, c.H, &c.GRUScratch)
		yhat, next := ws.preds[t*d:(t+1)*d], ws.norm[(t+1)*d:(t+2)*d]
		p.predictInto(yhat, c.H)
		for f := range yhat {
			dlt := yhat[f] - next[f]
			loss += 0.5 * dlt * dlt
		}
	}
	clear(ws.grads)
	dh, dhPrev := ws.dh, ws.dhPrev
	clear(dh)
	for t := len(seq) - 2; t >= 0; t-- {
		c := ws.cache(t)
		yhat, next := ws.preds[t*d:(t+1)*d], ws.norm[(t+1)*d:(t+2)*d]
		for f := range ws.dy {
			ws.dy[f] = yhat[f] - next[f]
		}
		ws.dWo.AddOuter(ws.dy, c.H)
		addVec(ws.dBo, ws.dy)
		p.Wo.MulVecT(ws.dy, dh)
		p.GRU.backward(&c, dh, ws.gr, dhPrev, ws.dx, &ws.back)
		dh, dhPrev = dhPrev, dh
	}
	return loss
}

// HiddenStates runs the predictor over a full sequence (teacher forcing) and
// returns the hidden state after each step plus the per-step next-value
// prediction error (L1, normalized space). states[t] is the state after
// consuming seq[t]; errs[t] is the error predicting seq[t+1] from states[t]
// (errs has length len(seq)-1).
func (p *Predictor) HiddenStates(seq [][]float64) (states [][]float64, errs []float64) {
	states = make([][]float64, len(seq))
	if len(seq) == 0 {
		return states, nil
	}
	errs = make([]float64, len(seq)-1)
	d := len(p.Mean)
	x, next, yhat := zeros(d), zeros(d), zeros(d)
	sc := p.GRU.NewScratch()
	h := zeros(p.GRU.Hidden)
	flat := zeros(len(seq) * p.GRU.Hidden)
	for t := 0; t < len(seq); t++ {
		p.NormalizeInto(x, seq[t])
		states[t] = carve(&flat, p.GRU.Hidden)
		p.GRU.Step(x, h, states[t], sc)
		h = states[t]
		if t < len(seq)-1 {
			p.predictInto(yhat, h)
			p.NormalizeInto(next, seq[t+1])
			var e float64
			for f := range yhat {
				e += math.Abs(yhat[f] - next[f])
			}
			errs[t] = e
		}
	}
	return states, errs
}

// Gate is the Skip RNN's sampling head: a logistic unit over the predictor's
// hidden state plus a gap ramp. The sample decision for step t is
//
//	collect  <=>  sigmoid(W . h + B + Kappa*(gap-1) + bias) >= 0.5
//
// where gap counts steps since the last collection and bias is the
// per-budget rate adjustment fitted downstream.
type Gate struct {
	W     []float64
	B     float64
	Kappa float64
}

// Logit returns the gate pre-activation for a hidden state and gap.
func (g *Gate) Logit(h []float64, gap int) float64 {
	var s float64
	for i := range g.W {
		s += g.W[i] * h[i]
	}
	return s + g.B + g.Kappa*float64(gap-1)
}

// TrainGate fits the gate by logistic regression: teacher-forced hidden
// states are labeled positive when the next-step prediction error exceeds
// the median error (high surprise should trigger collection). Kappa is set
// so that a gap of maxPeriod steps adds roughly 4 logits, bounding skips.
func TrainGate(p *Predictor, seqs [][][]float64, epochs int, lr float64, seed int64) *Gate {
	g := &Gate{W: zeros(p.GRU.Hidden), Kappa: 4.0 / 16.0}
	// Collect (state, error) pairs.
	var allStates [][]float64
	var allErrs []float64
	for _, seq := range seqs {
		states, errs := p.HiddenStates(seq)
		for t := 0; t < len(errs); t++ {
			allStates = append(allStates, states[t])
			allErrs = append(allErrs, errs[t])
		}
	}
	if len(allErrs) == 0 {
		return g
	}
	tau := medianOf(allErrs)
	rng := rand.New(rand.NewSource(seed))
	for epoch := 0; epoch < epochs; epoch++ {
		for _, i := range rng.Perm(len(allStates)) {
			target := 0.0
			if allErrs[i] > tau {
				target = 1.0
			}
			pred := sigmoid(g.Logit(allStates[i], 1))
			grad := pred - target
			for j := range g.W {
				g.W[j] -= lr * grad * allStates[i][j]
			}
			g.B -= lr * grad
		}
	}
	return g
}

// medianOf returns the upper median of xs. Its inputs are finite and
// non-negative with no -0, so any sort order puts the same value there.
func medianOf(xs []float64) float64 {
	s := cloneVec(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
