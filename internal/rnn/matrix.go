// Package rnn implements the neural-network substrate for the Skip RNN
// sampling policy (§5.5, Campos et al. [22]): dense matrix/vector math, a
// GRU cell with full backpropagation through time, an Adam optimizer, and a
// next-step sequence predictor whose hidden state drives a trainable skip
// gate. Everything is written from scratch on the standard library; the
// paper's artifact loads pre-trained TensorFlow models, which this package
// replaces with in-process training (see DESIGN.md §4).
package rnn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zero matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatRandom returns a matrix with Xavier/Glorot-scaled uniform entries.
func NewMatRandom(rows, cols int, rng *rand.Rand) *Mat {
	m := NewMat(rows, cols)
	m.randomize(rng)
	return m
}

// randomize fills m with Xavier/Glorot-scaled uniform entries for its own
// shape, drawing from rng in row-major order.
func (m *Mat) randomize(rng *rand.Rand) {
	scale := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// matOver returns a rows x cols matrix over the next rows*cols floats of
// *buf (see carve).
func matOver(buf *[]float64, rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: carve(buf, rows*cols)}
}

// MulVec computes out = m * x. out must have length m.Rows and x length
// m.Cols; it panics otherwise.
//
// It computes four rows per pass with one accumulator each, so the four
// dependency chains overlap. Every row is still summed over c = 0..Cols-1
// in order from +0, so each out[r] has the same bits as a plain row loop.
//
//age:hotpath
func (m *Mat) MulVec(x, out []float64) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("rnn: MulVec shape mismatch: (%dx%d) * %d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	n := len(x)
	r := 0
	for ; r+4 <= len(out); r += 4 {
		// Reslicing each row to len(x) lets the compiler drop the bounds
		// checks in the inner loop.
		row0 := m.Data[r*n : (r+1)*n][:len(x)]
		row1 := m.Data[(r+1)*n : (r+2)*n][:len(x)]
		row2 := m.Data[(r+2)*n : (r+3)*n][:len(x)]
		row3 := m.Data[(r+3)*n : (r+4)*n][:len(x)]
		var s0, s1, s2, s3 float64
		for c, v := range x {
			s0 += row0[c] * v
			s1 += row1[c] * v
			s2 += row2[c] * v
			s3 += row3[c] * v
		}
		o := out[r : r+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; r < len(out); r++ {
		row := m.Data[r*n : (r+1)*n][:len(x)]
		var s float64
		for c, v := range x {
			s += row[c] * v
		}
		out[r] = s
	}
}

// MulVecT computes out = m^T * x (x has length m.Rows, out length m.Cols),
// accumulating into out.
func (m *Mat) MulVecT(x, out []float64) {
	if len(x) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("rnn: MulVecT shape mismatch: (%dx%d)^T * %d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for r := 0; r < m.Rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			out[c] += xr * v
		}
	}
}

// AddOuter accumulates m += a * b^T (a has length m.Rows, b length m.Cols),
// the gradient of a MulVec.
func (m *Mat) AddOuter(a, b []float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("rnn: AddOuter shape mismatch: %d x %d into (%dx%d)", len(a), len(b), m.Rows, m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		ar := a[r]
		if ar == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c := range row {
			row[c] += ar * b[c]
		}
	}
}

// vector helpers

func zeros(n int) []float64 { return make([]float64, n) }

// carve returns the next n floats of *buf, capped so appends cannot spill
// into its neighbours, and advances *buf past them.
func carve(buf *[]float64, n int) []float64 {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

func cloneVec(x []float64) []float64 { return append([]float64(nil), x...) }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func sigmoidVec(x []float64) {
	for i := range x {
		x[i] = sigmoid(x[i])
	}
}

func tanhVec(x []float64) {
	for i := range x {
		x[i] = math.Tanh(x[i])
	}
}

func addVec(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Adam implements the Adam optimizer over a flat parameter slice.
type Adam struct {
	lr, beta1, beta2, eps float64
	m, v                  []float64
	t                     int
}

// NewAdam returns an Adam optimizer for n parameters.
func NewAdam(n int, lr float64) *Adam {
	return &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: zeros(n), v: zeros(n)}
}

// Step applies one update: params -= lr * mhat / (sqrt(vhat) + eps).
func (a *Adam) Step(params, grads []float64) {
	if len(params) != len(a.m) || len(grads) != len(a.m) {
		panic("rnn: Adam size mismatch")
	}
	a.t++
	b1c := 1 - math.Pow(a.beta1, float64(a.t))
	b2c := 1 - math.Pow(a.beta2, float64(a.t))
	for i := range params {
		g := grads[i]
		a.m[i] = a.beta1*a.m[i] + (1-a.beta1)*g
		a.v[i] = a.beta2*a.v[i] + (1-a.beta2)*g*g
		params[i] -= a.lr * (a.m[i] / b1c) / (math.Sqrt(a.v[i]/b2c) + a.eps)
	}
}

// clipGrads scales grads in place so their L2 norm is at most maxNorm.
func clipGrads(grads []float64, maxNorm float64) {
	var n float64
	for _, g := range grads {
		n += g * g
	}
	n = math.Sqrt(n)
	if n > maxNorm && n > 0 {
		s := maxNorm / n
		for i := range grads {
			grads[i] *= s
		}
	}
}
