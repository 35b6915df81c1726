// Package stats implements the statistical machinery the paper's evaluation
// relies on: Shannon entropy and normalized mutual information between
// message sizes and event labels (§5.3, Eq. 3), approximate permutation tests
// for NMI significance, Welch's t-test for conditional message-size
// distributions (§3.2) and budget-violation detection (§5.7), and the
// descriptive statistics (mean, std, median, IQR) used throughout.
//
// Entropy, mutual information and NMI share one kernel whose float sums run
// in ascending rank order: marginals by value rank, joint cells by (row,
// column) rank. The order is fixed by the values alone, never by input
// order or map iteration, so equal tables give equal bits — the slice and
// count forms agree exactly, and a permutation that reproduces the observed
// table reproduces the observed NMI.
//
//age:deterministic
package stats

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or 0 when len < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopStdDev returns the population (n) standard deviation, used for the
// deviation-weighted error metric in Table 5.
func PopStdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQR returns the interquartile range (Q3 - Q1).
func IQR(xs []float64) float64 { return Quantile(xs, 0.75) - Quantile(xs, 0.25) }

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Entropy returns the Shannon entropy (bits) of the empirical distribution
// of the discrete observations in labels.
func Entropy(labels []int) float64 {
	_, counts := rank(labels)
	return entropy(counts)
}

// EntropyCounts returns the Shannon entropy (bits) of the empirical
// distribution described by a count table — the incremental form of Entropy
// used by live monitors that maintain counts instead of retaining every
// observation. Zero and negative counts are ignored.
func EntropyCounts(counts map[int]int64) float64 {
	_, positive := sortedCounts(counts, cmp.Compare[int])
	return entropy(positive)
}

// NMICounts returns the normalized mutual information of Eq. 3 computed from
// a joint count table over (label, size) pairs — the incremental form of
// NMI for monitors that maintain counts. Marginals are derived from the
// joint, so both entropies cover exactly the jointly observed population.
// Zero and negative counts are ignored; an empty (or constant-marginal)
// table yields 0, matching NMI's convention.
func NMICounts(joint map[[2]int]int64) float64 {
	keys, counts := sortedCounts(joint, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
	t := countTable(keys, counts)
	return t.nmi(t.marginalEntropy())
}

// MutualInformation returns the maximum-likelihood estimate of I(X;Y) in bits
// between two paired discrete observation sequences. It panics if the slices
// have different lengths.
func MutualInformation(xs, ys []int) float64 {
	return newPairs(xs, ys).mutualInfo()
}

// NMI returns the normalized mutual information of the paper's Eq. 3:
//
//	NMI(L, M) = 2 I(L; M) / (H(L) + H(M))
//
// It is 0 when either marginal entropy is 0 (a constant sequence carries no
// information, so nothing can leak). It panics if the slices have different
// lengths.
func NMI(labels, sizes []int) float64 {
	t := newPairs(labels, sizes)
	return t.nmi(t.marginalEntropy())
}

// PermutationTestResult reports the outcome of an approximate permutation
// test on NMI (§5.3).
type PermutationTestResult struct {
	Observed float64 // NMI on the real pairing
	PValue   float64 // fraction of permutations with NMI >= Observed
	// CILow and CIHigh bound the 95% confidence interval
	// p ± 1.96/(2*sqrt(n)) from Ojala & Garriga, as used in §5.3.
	CILow, CIHigh float64
	Permutations  int
}

// Significant reports whether the entire 95% confidence interval of the
// p-value lies below alpha, the criterion the paper uses.
func (r PermutationTestResult) Significant(alpha float64) bool {
	return r.CIHigh < alpha
}

// PermutationTestNMI shuffles sizes n times and recomputes NMI against the
// fixed labels. The null hypothesis is that the observed NMI arises from
// random variation rather than any dependence of sizes on labels. Both
// sequences are ranked once; each permutation shuffles the size ranks and
// re-counts the joint table into scratch allocated up front. A shuffle
// leaves both marginals as they are, so their entropies are computed once.
func PermutationTestNMI(labels, sizes []int, n int, rng *rand.Rand) PermutationTestResult {
	t := newPairs(labels, sizes)
	h := t.marginalEntropy()
	obs := t.nmi(h)
	perm := t.ys
	exceed := 0
	for i := 0; i < n; i++ {
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		t.count()
		if t.nmi(h) >= obs {
			exceed++
		}
	}
	// Add-one smoothing keeps the estimate away from an impossible 0.
	p := (float64(exceed) + 1) / (float64(n) + 1)
	half := 1.96 / (2 * math.Sqrt(float64(n)))
	return PermutationTestResult{
		Observed:     obs,
		PValue:       p,
		CILow:        math.Max(0, p-half),
		CIHigh:       math.Min(1, p+half),
		Permutations: n,
	}
}

// cell is one non-zero joint count, addressed by row and column rank.
type cell struct {
	row, col int
	n        int64
}

// table is a contingency table in rank order.
type table struct {
	n          int64   // total count
	rows, cols []int64 // marginal counts, indexed by rank
	cells      []cell  // non-zero joint counts in ascending (row, col) order
}

// entropy returns the Shannon entropy (bits) of the distribution with the
// given positive counts, summed in slice order.
//
//age:hotpath
func entropy(counts []int64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	var h float64
	for _, c := range counts {
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// mutualInfo returns I(row; col) in bits, summed in cell order.
//
//age:hotpath
func (t *table) mutualInfo() float64 {
	n := float64(t.n)
	var mi float64
	for _, c := range t.cells {
		pj := float64(c.n) / n
		mi += pj * math.Log2(pj/(float64(t.rows[c.row])/n*float64(t.cols[c.col])/n))
	}
	if mi < 0 { // guard tiny negative round-off
		mi = 0
	}
	return mi
}

// marginalEntropy returns H(row) + H(col).
func (t *table) marginalEntropy() float64 {
	return entropy(t.rows) + entropy(t.cols)
}

// nmi returns Eq. 3's 2 I / (H(row) + H(col)) given h = t.marginalEntropy(),
// or 0 when both marginals are constant.
//
//age:hotpath
func (t *table) nmi(h float64) float64 {
	if h == 0 {
		return 0
	}
	return 2 * t.mutualInfo() / h
}

// rank returns the dense rank of each xs[i] among the distinct values of xs
// in ascending order, and how often each rank occurs.
func rank(xs []int) (ids []int, counts []int64) {
	vals := slices.Clone(xs)
	slices.Sort(vals)
	vals = slices.Compact(vals)
	ids = make([]int, len(xs))
	counts = make([]int64, len(vals))
	for i, x := range xs {
		ids[i], _ = slices.BinarySearch(vals, x)
		counts[ids[i]]++
	}
	return ids, counts
}

// sortedCounts returns m's keys with a positive count in ascending order,
// and their counts.
func sortedCounts[K comparable](m map[K]int64, cmp func(a, b K) int) ([]K, []int64) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	keys = slices.DeleteFunc(keys, func(k K) bool { return m[k] <= 0 })
	counts := make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = m[k]
	}
	return keys, counts
}

// countTable builds the table whose cells are the lexicographically sorted
// (row value, column value) keys with the given counts. Ranks are monotone
// in the values, so the key order is already the cell order.
func countTable(keys [][2]int, counts []int64) *table {
	xs, ys := make([]int, len(keys)), make([]int, len(keys))
	for i, k := range keys {
		xs[i], ys[i] = k[0], k[1]
	}
	rowOf, keysPerRow := rank(xs)
	colOf, keysPerCol := rank(ys)
	t := &table{rows: make([]int64, len(keysPerRow)), cols: make([]int64, len(keysPerCol)), cells: make([]cell, len(keys))}
	for i, c := range counts {
		t.cells[i] = cell{row: rowOf[i], col: colOf[i], n: c}
		t.n += c
		t.rows[rowOf[i]] += c
		t.cols[colOf[i]] += c
	}
	return t
}

// pairs is the table of two paired sequences, ranked once, with the
// scratch that re-counting its cells needs.
type pairs struct {
	table
	xs, ys []int // row and column rank of each pair
	byCol  []int // pair indices ordered by column
	byRow  []int // pair indices ordered by (row, column)
	off    []int // counting-sort offsets
}

// newPairs ranks xs and ys and counts their table. It panics if they
// differ in length.
func newPairs(xs, ys []int) *pairs {
	if len(xs) != len(ys) {
		panic("stats: paired sequences differ in length")
	}
	p := &pairs{byCol: make([]int, len(xs)), byRow: make([]int, len(xs))}
	p.xs, p.rows = rank(xs)
	p.ys, p.cols = rank(ys)
	p.n = int64(len(xs))
	p.off = make([]int, max(len(p.rows), len(p.cols)))
	p.cells = make([]cell, 0, len(xs))
	// count sorts from the previous order; the first count starts from
	// the input order.
	for i := range p.byRow {
		p.byRow[i] = i
	}
	p.count()
	return p
}

// count rebuilds p.cells from the current ranks: a counting sort by
// column, then a stable one by row, leave equal pairs adjacent in
// ascending (row, col) order, and each run of them is one cell.
//
//age:hotpath
func (p *pairs) count() {
	countingSort(p.byCol, p.byRow, p.ys, p.cols, p.off)
	countingSort(p.byRow, p.byCol, p.xs, p.rows, p.off)
	p.cells = p.cells[:0]
	for _, i := range p.byRow {
		r, c := p.xs[i], p.ys[i]
		if last := len(p.cells) - 1; last >= 0 && p.cells[last].row == r && p.cells[last].col == c {
			p.cells[last].n++
		} else {
			p.cells = append(p.cells, cell{row: r, col: c, n: 1})
		}
	}
}

// countingSort stably orders the indices in src by key[i] into dst, where
// counts[k] is how many indices have key k; off is scratch of at least
// len(counts).
//
//age:hotpath
func countingSort(dst, src, key []int, counts []int64, off []int) {
	start := 0
	for k, c := range counts {
		off[k] = start
		start += int(c)
	}
	for _, i := range src {
		dst[off[key[i]]] = i
		off[key[i]]++
	}
}

// WelchResult reports a two-sample Welch's t-test.
type WelchResult struct {
	T  float64 // t statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest performs Welch's unequal-variances t-test between samples a and
// b. The paper uses it to show the per-event message-size distributions
// differ (§3.2, alpha=0.01) and to detect budget violations (§5.7,
// one-sided alpha=0.05; halve P for the one-sided test).
func WelchTTest(a, b []float64) WelchResult {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return WelchResult{P: 1}
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a)/na, Variance(b)/nb
	if va+vb == 0 {
		if ma == mb {
			return WelchResult{P: 1, DF: na + nb - 2}
		}
		return WelchResult{T: math.Inf(sign(ma - mb)), DF: na + nb - 2, P: 0}
	}
	t := (ma - mb) / math.Sqrt(va+vb)
	df := (va + vb) * (va + vb) / (va*va/(na-1) + vb*vb/(nb-1))
	p := 2 * studentTSF(math.Abs(t), df)
	return WelchResult{T: t, DF: df, P: p}
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTSF returns P(T > t) for Student's t distribution with df degrees of
// freedom, via the regularized incomplete beta function.
func studentTSF(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes §6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
