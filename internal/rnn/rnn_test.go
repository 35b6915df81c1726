package rnn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	out := make([]float64, 2)
	m.MulVec([]float64{1, 0, -1}, out)
	if out[0] != -2 || out[1] != -2 {
		t.Errorf("MulVec = %v", out)
	}
}

func TestMatMulVecT(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	out := make([]float64, 3)
	m.MulVecT([]float64{1, 1}, out)
	want := []float64{5, 7, 9}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("MulVecT = %v, want %v", out, want)
		}
	}
}

func TestMatAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4})
	want := []float64{3, 4, 6, 8}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Errorf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

func TestMatShapePanics(t *testing.T) {
	m := NewMat(2, 3)
	for name, f := range map[string]func(){
		"MulVec":   func() { m.MulVec(make([]float64, 2), make([]float64, 2)) },
		"MulVecT":  func() { m.MulVecT(make([]float64, 3), make([]float64, 3)) },
		"AddOuter": func() { m.AddOuter(make([]float64, 3), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	prop := func(a, b []float64) bool {
		parts := [][]float64{append([]float64(nil), a...), append([]float64(nil), b...)}
		flat := flatten(parts)
		if len(flat) != len(a)+len(b) {
			return false
		}
		for i := range flat {
			flat[i] += 1
		}
		unflatten(flat, parts)
		for i := range a {
			if parts[0][i] != a[i]+1 {
				return false
			}
		}
		for i := range b {
			if parts[1][i] != b[i]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)^2.
	params := []float64{0}
	opt := NewAdam(1, 0.1)
	for i := 0; i < 500; i++ {
		grad := []float64{2 * (params[0] - 3)}
		opt.Step(params, grad)
	}
	if math.Abs(params[0]-3) > 0.01 {
		t.Errorf("Adam converged to %g, want 3", params[0])
	}
}

func TestClipGrads(t *testing.T) {
	g := []float64{3, 4} // norm 5
	clipGrads(g, 1)
	if math.Abs(math.Hypot(g[0], g[1])-1) > 1e-12 {
		t.Errorf("clipped norm = %g", math.Hypot(g[0], g[1]))
	}
	h := []float64{0.3, 0.4}
	clipGrads(h, 1)
	if h[0] != 0.3 || h[1] != 0.4 {
		t.Errorf("under-norm grads modified: %v", h)
	}
}

// TestGRUGradientCheck verifies the analytic BPTT gradients against central
// finite differences on a 3-step unrolled loss — the canonical correctness
// test for a hand-written backward pass.
func TestGRUGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		din    = 3
		hidden = 4
		steps  = 3
		eps    = 1e-5
	)
	g := NewGRU(din, hidden, rng)
	xs := make([][]float64, steps)
	for i := range xs {
		xs[i] = make([]float64, din)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	target := make([]float64, hidden)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	// Loss: 0.5*||h_T - target||^2 after `steps` GRU steps.
	loss := func() float64 {
		h := make([]float64, hidden)
		for _, x := range xs {
			h, _ = g.Forward(x, h)
		}
		var l float64
		for i := range h {
			d := h[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}
	// Analytic gradients.
	h := make([]float64, hidden)
	caches := make([]*GRUCache, steps)
	for i, x := range xs {
		h, caches[i] = g.Forward(x, h)
	}
	analytic := zeros(g.numParams())
	buf := analytic
	gr := g.gradsOver(&buf)
	dh := make([]float64, hidden)
	for i := range dh {
		dh[i] = h[i] - target[i]
	}
	for i := steps - 1; i >= 0; i-- {
		dh, _ = g.Backward(caches[i], dh, gr)
	}
	params := g.params()
	flat := flatten(params)
	checked := 0
	for pi := 0; pi < len(flat); pi += 4 { // sample every 4th parameter
		orig := flat[pi]
		flat[pi] = orig + eps
		unflatten(flat, params)
		lPlus := loss()
		flat[pi] = orig - eps
		unflatten(flat, params)
		lMinus := loss()
		flat[pi] = orig
		unflatten(flat, params)
		numeric := (lPlus - lMinus) / (2 * eps)
		if diff := math.Abs(numeric - analytic[pi]); diff > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("param %d: numeric %g vs analytic %g", pi, numeric, analytic[pi])
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d parameters checked", checked)
	}
}

// TestGRUInputGradientCheck verifies dx from Backward.
func TestGRUInputGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const (
		din    = 2
		hidden = 3
		eps    = 1e-5
	)
	g := NewGRU(din, hidden, rng)
	x := []float64{0.5, -0.3}
	h0 := []float64{0.1, -0.2, 0.3}
	target := []float64{0.4, 0.2, -0.1}
	loss := func(xv []float64) float64 {
		h, _ := g.Forward(xv, h0)
		var l float64
		for i := range h {
			d := h[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}
	h, cache := g.Forward(x, h0)
	dh := make([]float64, hidden)
	for i := range dh {
		dh[i] = h[i] - target[i]
	}
	_, dx := g.Backward(cache, dh, g.NewGrads())
	for i := range x {
		xp := append([]float64(nil), x...)
		xp[i] += eps
		lPlus := loss(xp)
		xp[i] -= 2 * eps
		lMinus := loss(xp)
		numeric := (lPlus - lMinus) / (2 * eps)
		if math.Abs(numeric-dx[i]) > 1e-6*(1+math.Abs(numeric)) {
			t.Fatalf("dx[%d]: numeric %g vs analytic %g", i, numeric, dx[i])
		}
	}
}

func TestGRUForwardDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := NewGRU(2, 3, rng)
	x := []float64{1, -1}
	h0 := []float64{0, 0, 0}
	h1, _ := g.Forward(x, h0)
	h2, _ := g.Forward(x, h0)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("forward pass not deterministic")
		}
	}
	// State must stay bounded (gates + tanh).
	for i := range h1 {
		if math.Abs(h1[i]) > 1 {
			t.Errorf("|h[%d]| = %g > 1", i, math.Abs(h1[i]))
		}
	}
}

func TestPredictorTrainingReducesLoss(t *testing.T) {
	// Learnable task: slow sinusoids. Next-step prediction loss after
	// training must beat the untrained model.
	rng := rand.New(rand.NewSource(45))
	var seqs [][][]float64
	for s := 0; s < 12; s++ {
		seq := make([][]float64, 40)
		phase := rng.Float64() * 6
		for t := range seq {
			seq[t] = []float64{math.Sin(0.3*float64(t) + phase)}
		}
		seqs = append(seqs, seq)
	}
	evalLoss := func(p *Predictor) float64 {
		var total float64
		var n int
		for _, seq := range seqs {
			_, errs := p.HiddenStates(seq)
			for _, e := range errs {
				total += e
				n++
			}
		}
		return total / float64(n)
	}
	p := NewPredictor(1, 8, rng)
	p.FitNormalizer(seqs)
	before := evalLoss(p)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 6
	last, err := p.Train(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := evalLoss(p)
	if after >= before {
		t.Errorf("training did not reduce loss: before %g after %g (train loss %g)", before, after, last)
	}
}

func TestPredictorEmptyTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	p := NewPredictor(1, 4, rng)
	if _, err := p.Train(nil, DefaultTrainConfig()); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestNormalizer(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := NewPredictor(2, 4, rng)
	seqs := [][][]float64{{{10, -5}, {12, -7}, {14, -3}, {8, -5}}}
	p.FitNormalizer(seqs)
	if math.Abs(p.Mean[0]-11) > 1e-9 || math.Abs(p.Mean[1]+5) > 1e-9 {
		t.Errorf("means = %v", p.Mean)
	}
	n := p.Normalize([]float64{11, -5})
	if math.Abs(n[0]) > 1e-9 || math.Abs(n[1]) > 1e-9 {
		t.Errorf("normalized mean not ~0: %v", n)
	}
}

func TestGateTrainingSeparates(t *testing.T) {
	// After training, the gate should fire more on high-surprise states
	// than low-surprise ones.
	rng := rand.New(rand.NewSource(48))
	var seqs [][][]float64
	for s := 0; s < 10; s++ {
		seq := make([][]float64, 60)
		for t := range seq {
			v := 0.05 * rng.NormFloat64()
			if t >= 30 { // volatile second half
				v = 2 * math.Sin(2.5*float64(t))
			}
			seq[t] = []float64{v}
		}
		seqs = append(seqs, seq)
	}
	p := NewPredictor(1, 8, rng)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	if _, err := p.Train(seqs, cfg); err != nil {
		t.Fatal(err)
	}
	g := TrainGate(p, seqs, 3, 0.05, 1)
	var flatLogit, volLogit float64
	var nf, nv int
	for _, seq := range seqs {
		states, _ := p.HiddenStates(seq)
		for t, h := range states {
			if t < 25 {
				flatLogit += g.Logit(h, 1)
				nf++
			} else if t >= 35 {
				volLogit += g.Logit(h, 1)
				nv++
			}
		}
	}
	if volLogit/float64(nv) <= flatLogit/float64(nf) {
		t.Errorf("gate does not separate: flat %g vs volatile %g",
			flatLogit/float64(nf), volLogit/float64(nv))
	}
}

func TestGateGapRamp(t *testing.T) {
	g := &Gate{W: []float64{0}, Kappa: 0.25}
	if g.Logit([]float64{0}, 1) != 0 {
		t.Error("gap 1 should add nothing")
	}
	if g.Logit([]float64{0}, 17) != 4 {
		t.Errorf("gap 17 logit = %g, want 4", g.Logit([]float64{0}, 17))
	}
}

func BenchmarkGRUForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGRU(6, 12, rng)
	x := make([]float64, 6)
	h := make([]float64, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, _ = g.Forward(x, h)
	}
}

func BenchmarkPredictorTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var seqs [][][]float64
	for s := 0; s < 4; s++ {
		seq := make([][]float64, 50)
		for t := range seq {
			seq[t] = []float64{math.Sin(0.2 * float64(t))}
		}
		seqs = append(seqs, seq)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPredictor(1, 8, rng)
		cfg := DefaultTrainConfig()
		cfg.Epochs = 1
		if _, err := p.Train(seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// refMulVec is the plain row loop MulVec ran before it was blocked: out[r]
// sums m[r, c] * x[c] over c in order from +0.
func refMulVec(m *Mat, x, out []float64) {
	for r := 0; r < m.Rows; r++ {
		var s float64
		for c := 0; c < m.Cols; c++ {
			s += m.Data[r*m.Cols+c] * x[c]
		}
		out[r] = s
	}
}

// referenceForward is the GRU step as Forward computed it before Step
// existed: one refMulVec per gate matrix, every intermediate allocated.
// Step must match it bit for bit.
func referenceForward(g *GRU, x, hPrev []float64) []float64 {
	H := g.Hidden
	z, r, c, tmp := zeros(H), zeros(H), zeros(H), zeros(H)
	refMulVec(g.Wz, x, z)
	refMulVec(g.Uz, hPrev, tmp)
	addVec(z, tmp)
	addVec(z, g.Bz)
	sigmoidVec(z)
	refMulVec(g.Wr, x, r)
	refMulVec(g.Ur, hPrev, tmp)
	addVec(r, tmp)
	addVec(r, g.Br)
	sigmoidVec(r)
	rh := zeros(H)
	for i := range rh {
		rh[i] = r[i] * hPrev[i]
	}
	refMulVec(g.Wc, x, c)
	refMulVec(g.Uc, rh, tmp)
	addVec(c, tmp)
	addVec(c, g.Bc)
	tanhVec(c)
	h := zeros(H)
	for i := range h {
		h[i] = (1-z[i])*hPrev[i] + z[i]*c[i]
	}
	return h
}

// FuzzMulVec checks the blocked MulVec against refMulVec bit for bit for
// every shape up to 40x40, including row counts that leave a remainder
// after the 4-row blocks. Entries come from the seed, scaled over many
// binades so rounding differences would show.
func FuzzMulVec(f *testing.F) {
	for _, shape := range [][2]uint8{{0, 0}, {1, 1}, {3, 5}, {4, 4}, {7, 12}, {36, 6}, {24, 12}, {40, 40}} {
		f.Add(shape[0], shape[1], int64(shape[0])*41+int64(shape[1]))
	}
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64) {
		m := NewMat(int(rows)%41, int(cols)%41)
		rng := rand.New(rand.NewSource(seed))
		draw := func() float64 { return rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20) }
		for i := range m.Data {
			m.Data[i] = draw()
		}
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = draw()
		}
		got, want := make([]float64, m.Rows), make([]float64, m.Rows)
		m.MulVec(x, got)
		refMulVec(m, x, want)
		if !sameBits(got, want) {
			t.Fatalf("%dx%d: MulVec %v, reference %v", m.Rows, m.Cols, got, want)
		}
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGRUStepMatchesForward: Step, Forward and the pre-Step arithmetic give
// the same h bit for bit along a 40-step trajectory, including when Step
// writes h over hPrev.
func TestGRUStepMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := NewGRU(3, 7, rng)
	for i := range g.Bz {
		g.Bz[i], g.Br[i], g.Bc[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	sc := g.NewScratch()
	hRef, hFwd, hStep, hAlias := zeros(7), zeros(7), zeros(7), zeros(7)
	next := zeros(7)
	for step := 0; step < 40; step++ {
		x := []float64{rng.NormFloat64(), 3 * rng.NormFloat64(), rng.Float64()}
		hRef = referenceForward(g, x, hRef)
		var cache *GRUCache
		hFwd, cache = g.Forward(x, hFwd)
		g.Step(x, hStep, next, sc)
		hStep, next = next, hStep
		g.Step(x, hAlias, hAlias, sc)
		if !sameBits(hFwd, hRef) || !sameBits(hStep, hRef) || !sameBits(hAlias, hRef) {
			t.Fatalf("step %d: reference %v, Forward %v, Step %v, aliased Step %v", step, hRef, hFwd, hStep, hAlias)
		}
		if !sameBits(cache.Z, sc.Z) || !sameBits(cache.R, sc.R) || !sameBits(cache.C, sc.C) || !sameBits(cache.RH, sc.RH) {
			t.Fatalf("step %d: Forward's cache and Step's scratch differ", step)
		}
	}
}

func TestGRUStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := NewGRU(6, 12, rng)
	sc := g.NewScratch()
	x, h := make([]float64, 6), make([]float64, 12)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if n := testing.AllocsPerRun(100, func() { g.Step(x, h, h, sc) }); n != 0 {
		t.Errorf("Step allocates %v times per call, want 0", n)
	}
}

// TestSequenceGradsAllocs: a training sequence allocates nothing once the
// workspace exists, and Train's allocation count does not grow with the
// sequence length.
func TestSequenceGradsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	seqOf := func(T int) [][]float64 {
		seq := make([][]float64, T)
		for t := range seq {
			seq[t] = []float64{rng.NormFloat64(), math.Sin(0.3 * float64(t))}
		}
		return seq
	}
	short, long := seqOf(40), seqOf(400)
	p := NewPredictor(2, 12, rng)
	ws := p.newBPTT(len(long))
	for _, seq := range [][][]float64{short, long} {
		if n := testing.AllocsPerRun(20, func() { p.sequenceGrads(seq, ws) }); n != 0 {
			t.Errorf("sequenceGrads at T=%d allocates %v times, want 0", len(seq), n)
		}
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	train := func(seq [][]float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := p.Train([][][]float64{seq, seq, seq}, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := train(short), train(long); a != b {
		t.Errorf("Train allocates %v times at T=40 but %v at T=400", a, b)
	}
}

// TestTrainGatePinned pins TrainGate's W, B and Kappa bit for bit on a
// seeded model, so changes to HiddenStates and medianOf stay exact.
func TestTrainGatePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var seqs [][][]float64
	for s := 0; s < 6; s++ {
		seq := make([][]float64, 40)
		for t := range seq {
			a := 0.1 * rng.NormFloat64()
			if t >= 20 {
				a = math.Sin(1.7 * float64(t+s))
			}
			seq[t] = []float64{a, 5 + rng.NormFloat64()}
		}
		seqs = append(seqs, seq)
	}
	p := NewPredictor(2, 5, rng)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	if _, err := p.Train(seqs, cfg); err != nil {
		t.Fatal(err)
	}
	g := TrainGate(p, seqs, 2, 0.05, 3)
	got := []uint64{math.Float64bits(g.B), math.Float64bits(g.Kappa)}
	for _, w := range g.W {
		got = append(got, math.Float64bits(w))
	}
	// Recorded from the allocating HiddenStates and insertion-sort median.
	want := []uint64{
		0xbfa6edb92a4ee694, 0x3fd0000000000000, 0x3fc125bfcb939111, 0x3fd3495b337298c7,
		0x3fe2f8c12a2c795b, 0xbfdf3bb35816dd31, 0x3fda9daa993cd713,
	}
	if !slices.Equal(got, want) {
		t.Errorf("TrainGate bits = %#x, want %#x", got, want)
	}
}

func BenchmarkGRUStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGRU(6, 12, rng)
	sc := g.NewScratch()
	x := make([]float64, 6)
	h := make([]float64, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Step(x, h, h, sc)
	}
}

// TestPredictorTrainPinned pins every parameter of a seeded Predictor.Train
// bit for bit (a SHA-256 over the Float64bits of GRU params, Wo and Bo in
// params order) and the returned loss. The shapes leave remainders for a
// 4-row blocked kernel (gate stacks of 15 and 10 rows, 5-row Uc), and the
// sequence lengths vary so a workspace sized by the longest one is reused
// at shorter lengths.
func TestPredictorTrainPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var seqs [][][]float64
	for s, T := range []int{37, 1, 52, 9, 44, 2, 30} {
		seq := make([][]float64, T)
		for t := range seq {
			seq[t] = []float64{math.Sin(0.4*float64(t+s)) + 0.1*rng.NormFloat64(), 3 + rng.NormFloat64()}
		}
		seqs = append(seqs, seq)
	}
	p := NewPredictor(2, 5, rng)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	loss, err := p.Train(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, part := range append(p.GRU.params(), p.Wo.Data, p.Bo) {
		for _, v := range part {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	got := fmt.Sprintf("%x loss=%#x", h.Sum(nil), math.Float64bits(loss))
	// Recorded from the per-gate MulVec and allocating BPTT.
	const want = "a05373365df786b9b087602540c7a036842b8d0960dc9412c09d1275b80bd486 loss=0x3ff221f80e74dd36"
	if got != want {
		t.Errorf("trained parameters = %s, want %s", got, want)
	}
}
