package reconstruct

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// referenceMAE is the allocating pipeline LinearMAE replaces.
func referenceMAE(indices []int, values, truth [][]float64, T, d int) (float64, error) {
	recon, err := Linear(indices, values, T, d)
	if err != nil {
		return 0, err
	}
	return MAE(recon, truth)
}

// sameBits reports whether two float64 results are bit-identical. Any two
// NaNs count as equal: Go does not specify which operand's payload an
// arithmetic NaN carries, so the NaN bits of one evaluation order are not
// a property of the code under test.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkLinearMAE runs LinearMAE and the reference on one input and
// reports any difference in result bits or error. It also runs
// LinearMAEStdDev, which must report LinearMAE's error and MAE bits and,
// on success, SequenceStdDev(truth)'s bits.
func checkLinearMAE(t *testing.T, name string, indices []int, values, truth [][]float64, T, d int) {
	t.Helper()
	got, gotErr := LinearMAE(indices, values, truth, T, d)
	want, wantErr := referenceMAE(indices, values, truth, T, d)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Errorf("%s: error %v, reference error %v", name, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Errorf("%s: error %q, reference error %q", name, gotErr, wantErr)
	case !sameBits(got, want):
		t.Errorf("%s: LinearMAE = %v (%#x), reference %v (%#x)",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	mae, weight, err := LinearMAEStdDev(indices, values, truth, T, d)
	switch {
	case (err == nil) != (gotErr == nil):
		t.Errorf("%s: LinearMAEStdDev error %v, LinearMAE error %v", name, err, gotErr)
	case err != nil && err.Error() != gotErr.Error():
		t.Errorf("%s: LinearMAEStdDev error %q, LinearMAE error %q", name, err, gotErr)
	case !sameBits(mae, got):
		t.Errorf("%s: LinearMAEStdDev mae = %v (%#x), LinearMAE %v (%#x)",
			name, mae, math.Float64bits(mae), got, math.Float64bits(got))
	case err == nil && !sameBits(weight, SequenceStdDev(truth)):
		sd := SequenceStdDev(truth)
		t.Errorf("%s: LinearMAEStdDev weight = %v (%#x), SequenceStdDev %v (%#x)",
			name, weight, math.Float64bits(weight), sd, math.Float64bits(sd))
	}
}

func matrix(rows, cols int, fill func(r, c int) float64) [][]float64 {
	m := make([][]float64, rows)
	for r := range m {
		m[r] = make([]float64, cols)
		for c := range m[r] {
			m[r][c] = fill(r, c)
		}
	}
	return m
}

func TestLinearMAEEdges(t *testing.T) {
	const T, d = 9, 2
	truth := matrix(T, d, func(r, c int) float64 { return math.Sin(float64(3*r+c)) * 4 })
	vals := func(n int) [][]float64 {
		return matrix(n, d, func(r, c int) float64 { return float64(r) - 1.5*float64(c) + 0.25 })
	}
	short := append(matrix(T-1, d, func(r, c int) float64 { return 1 }), []float64{1})
	cases := []struct {
		name    string
		indices []int
		values  [][]float64
		truth   [][]float64
		T, d    int
	}{
		{"empty batch", nil, nil, truth, T, d},
		{"empty batch wrong truth", nil, nil, truth[:3], T, d},
		{"single index", []int{4}, vals(1), truth, T, d},
		{"first index > 0", []int{2, 5, 8}, vals(3), truth, T, d},
		{"last index < T-1", []int{0, 3, 6}, vals(3), truth, T, d},
		{"full collection", []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, vals(9), truth, T, d},
		{"adjacent and wide gaps", []int{1, 2, 7}, vals(3), truth, T, d},
		{"length mismatch", []int{0, 4}, vals(1), truth, T, d},
		{"negative index", []int{-1, 4}, vals(2), truth, T, d},
		{"index >= T", []int{2, T}, vals(2), truth, T, d},
		{"unsorted indices", []int{5, 2}, vals(2), truth, T, d},
		{"duplicate indices", []int{3, 3}, vals(2), truth, T, d},
		{"wrong row width", []int{1, 4}, [][]float64{{1, 2}, {3}}, truth, T, d},
		{"bad index and wrong truth", []int{9}, vals(1), truth[:2], T, d},
		{"truth too short", []int{0, 8}, vals(2), truth[:T-1], T, d},
		{"truth too long", []int{0, 8}, vals(2), append(truth, []float64{0, 0}), T, d},
		{"truth wrong width", []int{0, 8}, vals(2), short, T, d},
		{"zero steps", nil, nil, nil, 0, d},
		{"zero features", []int{1, 5}, [][]float64{{}, {}}, matrix(T, 0, nil), T, 0},
		{"non-finite values", []int{0, 4}, [][]float64{{math.Inf(1), math.NaN()}, {1, math.Inf(-1)}}, truth, T, d},
	}
	for _, tc := range cases {
		checkLinearMAE(t, tc.name, tc.indices, tc.values, tc.truth, tc.T, tc.d)
	}
}

// randomBatch draws a batch geometry, a sorted index subset and values,
// and sometimes corrupts one part so error paths are compared too.
func randomBatch(rng *rand.Rand) (indices []int, values, truth [][]float64, T, d int) {
	T = rng.Intn(40)
	d = rng.Intn(4)
	truth = matrix(T, d, func(int, int) float64 { return rng.NormFloat64() * 3 })
	for t := 0; t < T; t++ {
		if rng.Intn(3) == 0 {
			indices = append(indices, t)
		}
	}
	values = matrix(len(indices), d, func(int, int) float64 { return rng.NormFloat64() * 5 })
	if rng.Intn(5) == 0 && T > 0 {
		switch rng.Intn(4) {
		case 0:
			indices = append(indices, rng.Intn(T+2)-1)
			values = append(values, make([]float64, d))
		case 1:
			if len(values) > 0 {
				values[rng.Intn(len(values))] = make([]float64, d+1)
			}
		case 2:
			truth = truth[:rng.Intn(T)]
		case 3:
			truth[rng.Intn(T)] = make([]float64, d+1)
		}
	}
	return indices, values, truth, T, d
}

func TestLinearMAEMatchesLinearThenMAE(t *testing.T) {
	prop := func(seed int64) bool {
		indices, values, truth, T, d := randomBatch(rand.New(rand.NewSource(seed)))
		checkLinearMAE(t, "seed "+strconv.FormatInt(seed, 10), indices, values, truth, T, d)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSequenceStdDevMatchesPopStdDev(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := make([][]float64, rng.Intn(30))
		var flat []float64
		for i := range seq {
			// Ragged rows, including empty ones.
			seq[i] = make([]float64, rng.Intn(4))
			for f := range seq[i] {
				seq[i][f] = rng.NormFloat64()*10 + 3
			}
			flat = append(flat, seq[i]...)
		}
		return sameBits(SequenceStdDev(seq), stats.PopStdDev(flat))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	for _, seq := range [][][]float64{nil, {{}}, {{7}}, {{1, math.Inf(1)}}, {{math.NaN()}, {2}}} {
		var flat []float64
		for _, row := range seq {
			flat = append(flat, row...)
		}
		if got, want := SequenceStdDev(seq), stats.PopStdDev(flat); !sameBits(got, want) {
			t.Errorf("SequenceStdDev(%v) = %v, PopStdDev = %v", seq, got, want)
		}
	}
}

func TestKernelsAllocationFree(t *testing.T) {
	indices, values, truth, T, d := benchBatch()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := LinearMAE(indices, values, truth, T, d); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("LinearMAE allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { SequenceStdDev(truth) }); n != 0 {
		t.Errorf("SequenceStdDev allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := LinearMAEStdDev(indices, values, truth, T, d); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("LinearMAEStdDev allocs/op = %v, want 0", n)
	}
}

// fuzzCase decodes a fuzz input into a LinearMAE call. idx bytes become
// signed indices (so out-of-range, unsorted and duplicate indices all
// occur); badRow and badStep widen one value row or truth step (-1 for
// none); truthDelta changes the truth length; raw supplies the values
// eight bytes at a time, so any float64 bit pattern can occur.
func fuzzCase(T, d uint8, idx []byte, badRow, badStep, truthDelta int8, raw []byte) (indices []int, values, truth [][]float64, steps, width int) {
	steps, width = int(T%48), int(d%5)
	next := func() float64 {
		if len(raw) < 8 {
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
		raw = raw[8:]
		return v
	}
	for _, b := range idx {
		indices = append(indices, int(int8(b)))
	}
	values = matrix(len(indices), width, func(int, int) float64 { return next() })
	if int(badRow) >= 0 && int(badRow) < len(values) {
		values[badRow] = append(values[badRow], 1)
	}
	n := steps + int(truthDelta)%3
	if n < 0 {
		n = 0
	}
	truth = matrix(n, width, func(int, int) float64 { return next() })
	if int(badStep) >= 0 && int(badStep) < len(truth) {
		truth[badStep] = truth[badStep][:0]
	}
	return indices, values, truth, steps, width
}

func FuzzLinearMAE(f *testing.F) {
	f64 := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	vals := f64(1.5, -2, 0.25, 3, -7, 11, 0.5, 9, -1, 4, 2, 8, 6, -3, 5, 1, 7, -6, 0, 2)
	// T, d, indices, badRow, badStep, truthDelta, raw.
	f.Add(uint8(8), uint8(2), []byte{}, int8(-1), int8(-1), int8(0), vals)                                      // empty batch
	f.Add(uint8(8), uint8(2), []byte{3}, int8(-1), int8(-1), int8(0), vals)                                     // single index
	f.Add(uint8(8), uint8(2), []byte{2, 5, 7}, int8(-1), int8(-1), int8(0), vals)                               // first index > 0
	f.Add(uint8(8), uint8(2), []byte{0, 3, 5}, int8(-1), int8(-1), int8(0), vals)                               // last index < T-1
	f.Add(uint8(8), uint8(2), []byte{0xff, 3}, int8(-1), int8(-1), int8(0), vals)                               // negative index
	f.Add(uint8(8), uint8(2), []byte{4, 2}, int8(-1), int8(-1), int8(0), vals)                                  // unsorted
	f.Add(uint8(8), uint8(2), []byte{4, 4}, int8(-1), int8(-1), int8(0), vals)                                  // duplicate
	f.Add(uint8(8), uint8(2), []byte{1, 9}, int8(-1), int8(-1), int8(0), vals)                                  // index >= T
	f.Add(uint8(8), uint8(2), []byte{1, 6}, int8(1), int8(-1), int8(0), vals)                                   // wrong row width
	f.Add(uint8(8), uint8(2), []byte{1, 6}, int8(-1), int8(-1), int8(-1), vals)                                 // truth too short
	f.Add(uint8(8), uint8(2), []byte{1, 6}, int8(-1), int8(-1), int8(1), vals)                                  // truth too long
	f.Add(uint8(8), uint8(2), []byte{1, 6}, int8(-1), int8(5), int8(0), vals)                                   // truth wrong width
	f.Add(uint8(8), uint8(2), []byte{0, 7}, int8(-1), int8(-1), int8(0), f64(math.NaN(), math.Inf(1), -0.0, 1)) // non-finite
	f.Fuzz(func(t *testing.T, T, d uint8, idx []byte, badRow, badStep, truthDelta int8, raw []byte) {
		indices, values, truth, steps, width := fuzzCase(T, d, idx, badRow, badStep, truthDelta, raw)
		checkLinearMAE(t, "fuzz", indices, values, truth, steps, width)
	})
}
