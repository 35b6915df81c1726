package stats

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The ref* functions are the map-based entropy and MI loops the rank-order
// kernel replaced, kept as a differential reference. They sum in map order,
// so they agree with the kernel to round-off, not to the bit.

func refEntropy(labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	n := float64(len(labels))
	var h float64
	for _, c := range counts {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

func refEntropyCounts(counts map[int]int64) float64 {
	var n int64
	for _, c := range counts {
		if c > 0 {
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	var h float64
	nf := float64(n)
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / nf
		h -= p * math.Log2(p)
	}
	return h
}

func refNMICounts(joint map[[2]int]int64) float64 {
	var n int64
	px := map[int]int64{}
	py := map[int]int64{}
	for k, c := range joint {
		if c <= 0 {
			continue
		}
		n += c
		px[k[0]] += c
		py[k[1]] += c
	}
	if n == 0 {
		return 0
	}
	hx := refEntropyCounts(px)
	hy := refEntropyCounts(py)
	if hx+hy == 0 {
		return 0
	}
	nf := float64(n)
	var mi float64
	for k, c := range joint {
		if c <= 0 {
			continue
		}
		pj := float64(c) / nf
		mi += pj * math.Log2(pj/(float64(px[k[0]])/nf*float64(py[k[1]])/nf))
	}
	if mi < 0 {
		mi = 0
	}
	return 2 * mi / (hx + hy)
}

func refMutualInformation(xs, ys []int) float64 {
	if len(xs) != len(ys) {
		panic("refMutualInformation: length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	n := float64(len(xs))
	px := map[int]float64{}
	py := map[int]float64{}
	pxy := map[[2]int]float64{}
	for i := range xs {
		px[xs[i]]++
		py[ys[i]]++
		pxy[[2]int{xs[i], ys[i]}]++
	}
	var mi float64
	for k, c := range pxy {
		pj := c / n
		mi += pj * math.Log2(pj/(px[k[0]]/n*py[k[1]]/n))
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

func refNMI(labels, sizes []int) float64 {
	hl := refEntropy(labels)
	hm := refEntropy(sizes)
	if hl+hm == 0 {
		return 0
	}
	return 2 * refMutualInformation(labels, sizes) / (hl + hm)
}

// countMaps builds the marginal and joint count tables the live privacy
// monitor keeps for the paired sequences.
func countMaps(labels, sizes []int) (lc, sc map[int]int64, joint map[[2]int]int64) {
	lc, sc, joint = map[int]int64{}, map[int]int64{}, map[[2]int]int64{}
	for i := range labels {
		lc[labels[i]]++
		sc[sizes[i]]++
		joint[[2]int{labels[i], sizes[i]}]++
	}
	return lc, sc, joint
}

// randomTable draws n (label, size) pairs with sizes correlated to labels,
// over value ranges wide enough for many joint cells.
func randomTable(rng *rand.Rand, n, labels, spread int) (ls, ss []int) {
	ls, ss = make([]int, n), make([]int, n)
	for i := range ls {
		ls[i] = rng.Intn(labels) - labels/2
		ss[i] = ls[i]*spread/2 + rng.Intn(spread) - 7
	}
	return ls, ss
}

// TestInformationBitsStable: every information statistic returns the same
// bits across repeated calls and under any joint reordering of the pairs.
func TestInformationBitsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	labels, sizes := randomTable(rng, 600, 5, 40)
	_, sc0, joint0 := countMaps(labels, sizes)
	nmi, nmiCounts, hCounts := NMI(labels, sizes), NMICounts(joint0), EntropyCounts(sc0)
	mi, h := MutualInformation(labels, sizes), Entropy(sizes)
	same := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v, first call gave %v", name, got, want)
		}
	}
	for call := 0; call < 100; call++ {
		rng.Shuffle(len(labels), func(a, b int) {
			labels[a], labels[b] = labels[b], labels[a]
			sizes[a], sizes[b] = sizes[b], sizes[a]
		})
		_, sc, joint := countMaps(labels, sizes)
		same("NMI", NMI(labels, sizes), nmi)
		same("NMICounts", NMICounts(joint), nmiCounts)
		same("EntropyCounts", EntropyCounts(sc), hCounts)
		same("MutualInformation", MutualInformation(labels, sizes), mi)
		same("Entropy", Entropy(sizes), h)
	}
}

// TestKernelMatchesMapReference compares the kernel with the map-based
// loops it replaced on random tables, including zero and negative counts
// in the count forms.
func TestKernelMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s = %v, map reference %v", name, got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		labels, sizes := randomTable(rng, rng.Intn(400), 1+rng.Intn(8), 1+rng.Intn(60))
		lc, sc, joint := countMaps(labels, sizes)
		lc[1000] = 0
		sc[-1000] = -3
		joint[[2]int{7, 1000}] = 0
		joint[[2]int{-7, 3}] = -2
		near("Entropy", Entropy(labels), refEntropy(labels))
		near("EntropyCounts", EntropyCounts(lc), refEntropyCounts(lc))
		near("EntropyCounts", EntropyCounts(sc), refEntropyCounts(sc))
		near("MutualInformation", MutualInformation(labels, sizes), refMutualInformation(labels, sizes))
		near("NMI", NMI(labels, sizes), refNMI(labels, sizes))
		near("NMICounts", NMICounts(joint), refNMICounts(joint))
	}
}

// TestNMIManyDistinctValuesAllocBytes: NMI's memory grows with the number
// of pairs and distinct values, not with their product. The map-based
// loops allocated 49 MB here; a dense rows x cols table would need 320 GB.
func TestNMIManyDistinctValuesAllocBytes(t *testing.T) {
	const n = 200_000
	labels, sizes := make([]int, n), make([]int, n)
	for i, j := range rand.New(rand.NewSource(23)).Perm(n) {
		labels[i], sizes[i] = i*3, j*5-n
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := NMI(labels, sizes)
	runtime.ReadMemStats(&after)
	if got != 1 && math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI of a bijection = %v, want 1", got)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 49<<20 {
		t.Errorf("NMI on %d distinct values per side allocated %d MB, want under 49", n, bytes>>20)
	}
}

// TestPermutationTestNMIAllocs: the permutation loop re-counts into scratch
// allocated once, so allocations do not grow with the permutation count.
func TestPermutationTestNMIAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	labels, sizes := randomTable(rng, 300, 4, 30)
	allocs := func(perms int) float64 {
		return testing.AllocsPerRun(5, func() { PermutationTestNMI(labels, sizes, perms, rng) })
	}
	if few, many := allocs(2), allocs(200); many != few {
		t.Errorf("PermutationTestNMI allocates %v times at 2 permutations, %v at 200", few, many)
	}
}

// FuzzNMI checks the kernel against the map reference on fuzzed pairs
// (one byte per value), and the count forms against the slice forms bit
// for bit. Sequences of different lengths must panic.
func FuzzNMI(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3, 3, 3, 3}, []byte{9, 9, 9, 9})
	f.Add([]byte{0, 1, 2, 0, 1, 2}, []byte{100, 200, 44, 100, 200, 44})
	f.Add([]byte{0, 1, 0, 1, 255, 128}, []byte{5, 5, 6, 7, 8, 5})
	f.Add([]byte{1, 2, 3}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		ints := func(b []byte) []int {
			out := make([]int, len(b))
			for i, v := range b {
				out[i] = int(int8(v))
			}
			return out
		}
		labels, sizes := ints(xb), ints(yb)
		if len(labels) != len(sizes) {
			for name, fn := range map[string]func(){
				"NMI":               func() { NMI(labels, sizes) },
				"MutualInformation": func() { MutualInformation(labels, sizes) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted sequences of lengths %d and %d", name, len(labels), len(sizes))
						}
					}()
					fn()
				}()
			}
			return
		}
		nmi := NMI(labels, sizes)
		if want := refNMI(labels, sizes); math.Abs(nmi-want) > 1e-12 {
			t.Errorf("NMI = %v, map reference %v", nmi, want)
		}
		if nmi < 0 || nmi > 1+1e-12 {
			t.Errorf("NMI = %v outside [0, 1]", nmi)
		}
		if got, want := MutualInformation(labels, sizes), refMutualInformation(labels, sizes); math.Abs(got-want) > 1e-12 {
			t.Errorf("MutualInformation = %v, map reference %v", got, want)
		}
		lc, _, joint := countMaps(labels, sizes)
		if got := NMICounts(joint); math.Float64bits(got) != math.Float64bits(nmi) {
			t.Errorf("NMICounts = %v, NMI = %v", got, nmi)
		}
		h := Entropy(labels)
		if want := refEntropy(labels); math.Abs(h-want) > 1e-12 {
			t.Errorf("Entropy = %v, map reference %v", h, want)
		}
		if got := EntropyCounts(lc); math.Float64bits(got) != math.Float64bits(h) {
			t.Errorf("EntropyCounts = %v, Entropy = %v", got, h)
		}
	})
}
