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
//
// Wz, Wr and Wc are row views into one stacked [Wz; Wr; Wc] matrix, and Uz
// and Ur into one [Uz; Ur], so a step runs three matrix-vector products
// instead of six. Write through the views; replacing a view's pointer
// detaches it from the matrices Step reads.
type GRU struct {
	In, Hidden int

	Wz, Uz     *Mat
	Wr, Ur     *Mat
	Wc, Uc     *Mat
	Bz, Br, Bc []float64

	wx  *Mat // [Wz; Wr; Wc], 3H x In
	uzr *Mat // [Uz; Ur], 2H x H
}

// NewGRU returns a GRU with Xavier-initialized weights. Each gate matrix is
// drawn with its own shape's scale, in the order Wz, Uz, Wr, Ur, Wc, Uc.
func NewGRU(in, hidden int, rng *rand.Rand) *GRU {
	g := &GRU{In: in, Hidden: hidden, wx: NewMat(3*hidden, in), uzr: NewMat(2*hidden, hidden)}
	w, u, b := g.wx.Data, g.uzr.Data, zeros(3*hidden)
	g.Wz, g.Wr, g.Wc = matOver(&w, hidden, in), matOver(&w, hidden, in), matOver(&w, hidden, in)
	g.Uz, g.Ur, g.Uc = matOver(&u, hidden, hidden), matOver(&u, hidden, hidden), NewMat(hidden, hidden)
	g.Bz, g.Br, g.Bc = carve(&b, hidden), carve(&b, hidden), carve(&b, hidden)
	for _, m := range []*Mat{g.Wz, g.Uz, g.Wr, g.Ur, g.Wc, g.Uc} {
		m.randomize(rng)
	}
	return g
}

// GRUScratch holds one step's gate activations. Step overwrites it, so an
// inference loop reuses one scratch for every step.
type GRUScratch struct {
	Z, R, C []float64
	RH      []float64 // r .* hPrev
	zrc     []float64 // Z|R|C, the stacked W * x
	tmp     []float64 // 2H: [Uz; Ur] * hPrev, then Uc * RH, before they join the gate sums
}

// scratchOver returns a scratch whose gates and RH live in buf (4H floats)
// and whose tmp is tmp (2H floats, shareable between scratches).
func scratchOver(buf, tmp []float64, H int) GRUScratch {
	zrc := buf[: 3*H : 3*H]
	return GRUScratch{
		Z: zrc[:H:H], R: zrc[H : 2*H : 2*H], C: zrc[2*H:],
		RH: buf[3*H : 4*H : 4*H], zrc: zrc, tmp: tmp,
	}
}

// NewScratch returns a scratch sized for g, carved from one backing array.
func (g *GRU) NewScratch() *GRUScratch {
	H := g.Hidden
	buf := zeros(6 * H)
	s := scratchOver(buf[:4*H], buf[4*H:], H)
	return &s
}

// GRUCache stores one step's intermediates for the backward pass.
type GRUCache struct {
	X, HPrev []float64
	H        []float64
	GRUScratch
}

// Step computes h_t from x and hPrev into h without allocating, leaving the
// gate activations in s. h may alias hPrev: hPrev is read in full before h
// is written. Each gate sums (W x + U h) + b in that order, so the stacked
// products give the same bits as one product per gate.
//
//age:hotpath
func (g *GRU) Step(x, hPrev, h []float64, s *GRUScratch) {
	H := g.Hidden
	g.wx.MulVec(x, s.zrc)
	g.uzr.MulVec(hPrev, s.tmp)
	uz, ur := s.tmp[:H], s.tmp[H:2*H]
	for i := range s.Z {
		s.Z[i] = (s.Z[i] + uz[i]) + g.Bz[i]
	}
	for i := range s.R {
		s.R[i] = (s.R[i] + ur[i]) + g.Br[i]
	}
	sigmoidVec(s.zrc[:2*H])

	for i := range s.RH {
		s.RH[i] = s.R[i] * hPrev[i]
	}
	uc := s.tmp[:H]
	g.Uc.MulVec(s.RH, uc)
	for i := range s.C {
		s.C[i] = (s.C[i] + uc[i]) + g.Bc[i]
	}
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
	buf := zeros(g.numParams())
	return g.gradsOver(&buf)
}

// numParams is the number of floats params returns.
func (g *GRU) numParams() int { return 3 * g.Hidden * (g.In + g.Hidden + 1) }

// gradsOver returns an accumulator over the next numParams floats of *buf,
// laid out in params order, so the gradients are already one flat vector.
func (g *GRU) gradsOver(buf *[]float64) *GRUGrads {
	H, In := g.Hidden, g.In
	gr := &GRUGrads{}
	gr.Wz, gr.Uz = matOver(buf, H, In), matOver(buf, H, H)
	gr.Wr, gr.Ur = matOver(buf, H, In), matOver(buf, H, H)
	gr.Wc, gr.Uc = matOver(buf, H, In), matOver(buf, H, H)
	gr.Bz, gr.Br, gr.Bc = carve(buf, H), carve(buf, H), carve(buf, H)
	return gr
}

// backScratch holds Backward's per-step intermediates, H floats each.
type backScratch struct {
	dz, dc, dAc, dRH, dr, dAr, dAz []float64
}

func newBackScratch(H int) backScratch {
	buf := zeros(7 * H)
	return backScratch{
		dz: carve(&buf, H), dc: carve(&buf, H), dAc: carve(&buf, H), dRH: carve(&buf, H),
		dr: carve(&buf, H), dAr: carve(&buf, H), dAz: carve(&buf, H),
	}
}

// Backward consumes dh (the gradient of the loss w.r.t. this step's output
// h_t), accumulates parameter gradients into gr, and returns (dhPrev, dx).
func (g *GRU) Backward(cache *GRUCache, dh []float64, gr *GRUGrads) (dhPrev, dx []float64) {
	dhPrev, dx = zeros(g.Hidden), zeros(g.In)
	bs := newBackScratch(g.Hidden)
	g.backward(cache, dh, gr, dhPrev, dx, &bs)
	return dhPrev, dx
}

// backward is Backward into caller buffers: it overwrites dhPrev and dx.
// Both accumulate from +0 in the order candidate, reset, update, so the
// bits do not depend on which entry point ran.
func (g *GRU) backward(cache *GRUCache, dh []float64, gr *GRUGrads, dhPrev, dx []float64, bs *backScratch) {
	H := g.Hidden
	clear(dhPrev)
	clear(dx)

	dz, dc := bs.dz, bs.dc
	for i := 0; i < H; i++ {
		dz[i] = dh[i] * (cache.C[i] - cache.HPrev[i])
		dc[i] = dh[i] * cache.Z[i]
		dhPrev[i] += dh[i] * (1 - cache.Z[i])
	}

	// Candidate path: dAc = dc * (1 - c^2).
	dAc := bs.dAc
	for i := 0; i < H; i++ {
		dAc[i] = dc[i] * (1 - cache.C[i]*cache.C[i])
	}
	gr.Wc.AddOuter(dAc, cache.X)
	gr.Uc.AddOuter(dAc, cache.RH)
	addVec(gr.Bc, dAc)
	g.Wc.MulVecT(dAc, dx)
	dRH := bs.dRH
	clear(dRH)
	g.Uc.MulVecT(dAc, dRH)
	dr := bs.dr
	for i := 0; i < H; i++ {
		dr[i] = dRH[i] * cache.HPrev[i]
		dhPrev[i] += dRH[i] * cache.R[i]
	}

	// Reset gate: dAr = dr * r(1-r).
	dAr := bs.dAr
	for i := 0; i < H; i++ {
		dAr[i] = dr[i] * cache.R[i] * (1 - cache.R[i])
	}
	gr.Wr.AddOuter(dAr, cache.X)
	gr.Ur.AddOuter(dAr, cache.HPrev)
	addVec(gr.Br, dAr)
	g.Wr.MulVecT(dAr, dx)
	g.Ur.MulVecT(dAr, dhPrev)

	// Update gate: dAz = dz * z(1-z).
	dAz := bs.dAz
	for i := 0; i < H; i++ {
		dAz[i] = dz[i] * cache.Z[i] * (1 - cache.Z[i])
	}
	gr.Wz.AddOuter(dAz, cache.X)
	gr.Uz.AddOuter(dAz, cache.HPrev)
	addVec(gr.Bz, dAz)
	g.Wz.MulVecT(dAz, dx)
	g.Uz.MulVecT(dAz, dhPrev)
}

// params returns views over every parameter slice, in a fixed order shared
// with grads, for the flat optimizer interface.
func (g *GRU) params() [][]float64 {
	return [][]float64{
		g.Wz.Data, g.Uz.Data, g.Wr.Data, g.Ur.Data, g.Wc.Data, g.Uc.Data,
		g.Bz, g.Br, g.Bc,
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
