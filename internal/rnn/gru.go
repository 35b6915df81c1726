package rnn

import "math/rand"

// GRU is a gated recurrent unit cell:
//
//	z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)   update gate
//	r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)   reset gate
//	c_t = tanh(Wc x_t + Uc (r_t .* h_{t-1}) + bc)
//	h_t = (1 - z_t) .* h_{t-1} + z_t .* c_t
//
// The cell exposes a caching forward pass and the matching backward pass so
// a sequence model can run truncated backpropagation through time.
type GRU struct {
	In, Hidden int

	Wz, Uz     *Mat
	Wr, Ur     *Mat
	Wc, Uc     *Mat
	Bz, Br, Bc []float64
}

// NewGRU returns a GRU with Xavier-initialized weights.
func NewGRU(in, hidden int, rng *rand.Rand) *GRU {
	return &GRU{
		In: in, Hidden: hidden,
		Wz: NewMatRandom(hidden, in, rng), Uz: NewMatRandom(hidden, hidden, rng),
		Wr: NewMatRandom(hidden, in, rng), Ur: NewMatRandom(hidden, hidden, rng),
		Wc: NewMatRandom(hidden, in, rng), Uc: NewMatRandom(hidden, hidden, rng),
		Bz: zeros(hidden), Br: zeros(hidden), Bc: zeros(hidden),
	}
}

// GRUScratch holds one step's gate activations. Step overwrites it, so an
// inference loop reuses one scratch for every step.
type GRUScratch struct {
	Z, R, C []float64
	RH      []float64 // r .* hPrev
	tmp     []float64 // U * (hPrev or RH), before it joins the gate sum
}

// NewScratch returns a scratch sized for g, carved from one backing array.
func (g *GRU) NewScratch() *GRUScratch {
	H := g.Hidden
	buf := zeros(5 * H)
	return &GRUScratch{
		Z: buf[:H:H], R: buf[H : 2*H : 2*H], C: buf[2*H : 3*H : 3*H],
		RH: buf[3*H : 4*H : 4*H], tmp: buf[4*H:],
	}
}

// GRUCache stores one step's intermediates for the backward pass.
type GRUCache struct {
	X, HPrev []float64
	H        []float64
	GRUScratch
}

// Step computes h_t from x and hPrev into h without allocating, leaving the
// gate activations in s. h may alias hPrev: hPrev is read in full before h
// is written.
//
//age:hotpath
func (g *GRU) Step(x, hPrev, h []float64, s *GRUScratch) {
	g.Wz.MulVec(x, s.Z)
	g.Uz.MulVec(hPrev, s.tmp)
	addVec(s.Z, s.tmp)
	addVec(s.Z, g.Bz)
	sigmoidVec(s.Z)

	g.Wr.MulVec(x, s.R)
	g.Ur.MulVec(hPrev, s.tmp)
	addVec(s.R, s.tmp)
	addVec(s.R, g.Br)
	sigmoidVec(s.R)

	for i := range s.RH {
		s.RH[i] = s.R[i] * hPrev[i]
	}
	g.Wc.MulVec(x, s.C)
	g.Uc.MulVec(s.RH, s.tmp)
	addVec(s.C, s.tmp)
	addVec(s.C, g.Bc)
	tanhVec(s.C)

	for i := range h {
		h[i] = (1-s.Z[i])*hPrev[i] + s.Z[i]*s.C[i]
	}
}

// Forward computes h_t from x and hPrev, returning the new state and the
// cache needed to backpropagate through this step.
func (g *GRU) Forward(x, hPrev []float64) ([]float64, *GRUCache) {
	c := &GRUCache{X: cloneVec(x), HPrev: cloneVec(hPrev), H: zeros(g.Hidden), GRUScratch: *g.NewScratch()}
	g.Step(x, hPrev, c.H, &c.GRUScratch)
	return c.H, c
}

// GRUGrads accumulates parameter gradients across steps, mirroring the GRU's
// parameter layout.
type GRUGrads struct {
	Wz, Uz, Wr, Ur, Wc, Uc *Mat
	Bz, Br, Bc             []float64
}

// NewGrads returns a zeroed gradient accumulator for g.
func (g *GRU) NewGrads() *GRUGrads {
	return &GRUGrads{
		Wz: NewMat(g.Hidden, g.In), Uz: NewMat(g.Hidden, g.Hidden),
		Wr: NewMat(g.Hidden, g.In), Ur: NewMat(g.Hidden, g.Hidden),
		Wc: NewMat(g.Hidden, g.In), Uc: NewMat(g.Hidden, g.Hidden),
		Bz: zeros(g.Hidden), Br: zeros(g.Hidden), Bc: zeros(g.Hidden),
	}
}

// Backward consumes dh (the gradient of the loss w.r.t. this step's output
// h_t), accumulates parameter gradients into gr, and returns (dhPrev, dx).
func (g *GRU) Backward(cache *GRUCache, dh []float64, gr *GRUGrads) (dhPrev, dx []float64) {
	H := g.Hidden
	dhPrev = zeros(H)
	dx = zeros(g.In)

	dz := zeros(H)
	dc := zeros(H)
	for i := 0; i < H; i++ {
		dz[i] = dh[i] * (cache.C[i] - cache.HPrev[i])
		dc[i] = dh[i] * cache.Z[i]
		dhPrev[i] += dh[i] * (1 - cache.Z[i])
	}

	// Candidate path: dAc = dc * (1 - c^2).
	dAc := zeros(H)
	for i := 0; i < H; i++ {
		dAc[i] = dc[i] * (1 - cache.C[i]*cache.C[i])
	}
	gr.Wc.AddOuter(dAc, cache.X)
	gr.Uc.AddOuter(dAc, cache.RH)
	addVec(gr.Bc, dAc)
	g.Wc.MulVecT(dAc, dx)
	dRH := zeros(H)
	g.Uc.MulVecT(dAc, dRH)
	dr := zeros(H)
	for i := 0; i < H; i++ {
		dr[i] = dRH[i] * cache.HPrev[i]
		dhPrev[i] += dRH[i] * cache.R[i]
	}

	// Reset gate: dAr = dr * r(1-r).
	dAr := zeros(H)
	for i := 0; i < H; i++ {
		dAr[i] = dr[i] * cache.R[i] * (1 - cache.R[i])
	}
	gr.Wr.AddOuter(dAr, cache.X)
	gr.Ur.AddOuter(dAr, cache.HPrev)
	addVec(gr.Br, dAr)
	g.Wr.MulVecT(dAr, dx)
	g.Ur.MulVecT(dAr, dhPrev)

	// Update gate: dAz = dz * z(1-z).
	dAz := zeros(H)
	for i := 0; i < H; i++ {
		dAz[i] = dz[i] * cache.Z[i] * (1 - cache.Z[i])
	}
	gr.Wz.AddOuter(dAz, cache.X)
	gr.Uz.AddOuter(dAz, cache.HPrev)
	addVec(gr.Bz, dAz)
	g.Wz.MulVecT(dAz, dx)
	g.Uz.MulVecT(dAz, dhPrev)

	return dhPrev, dx
}

// params returns views over every parameter slice, in a fixed order shared
// with grads, for the flat optimizer interface.
func (g *GRU) params() [][]float64 {
	return [][]float64{
		g.Wz.Data, g.Uz.Data, g.Wr.Data, g.Ur.Data, g.Wc.Data, g.Uc.Data,
		g.Bz, g.Br, g.Bc,
	}
}

func (gr *GRUGrads) slices() [][]float64 {
	return [][]float64{
		gr.Wz.Data, gr.Uz.Data, gr.Wr.Data, gr.Ur.Data, gr.Wc.Data, gr.Uc.Data,
		gr.Bz, gr.Br, gr.Bc,
	}
}

// flatten concatenates slices into one flat vector (copying).
func flatten(parts [][]float64) []float64 {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]float64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// unflatten copies flat back into the parts.
func unflatten(flat []float64, parts [][]float64) {
	i := 0
	for _, p := range parts {
		copy(p, flat[i:i+len(p)])
		i += len(p)
	}
}
