package attack

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleBuild is the tree builder as it was before the sort-order memo:
// every node sorts its samples afresh on every feature.
func oracleBuild(X [][]float64, y []int, w []float64, idx []int, numClasses, depth int) *treeNode {
	major, pure := weightedMajority(y, w, idx, numClasses)
	if depth == 0 || pure || len(idx) < 2 {
		return &treeNode{leaf: true, class: major}
	}
	orders := make([][]int, len(X[idx[0]]))
	for f := range orders {
		order := append([]int(nil), idx...)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		orders[f] = order
	}
	feature, threshold, ok := oracleBestSplit(X, y, w, idx, orders, numClasses)
	if !ok {
		return &treeNode{leaf: true, class: major}
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &treeNode{leaf: true, class: major}
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      oracleBuild(X, y, w, left, numClasses, depth-1),
		right:     oracleBuild(X, y, w, right, numClasses, depth-1),
	}
}

// oracleBestSplit is bestSplit as it was before the dense columns: it reads
// each sample's value and class through its index. orders[f] holds idx
// sorted by feature f.
func oracleBestSplit(X [][]float64, y []int, w []float64, idx []int, orders [][]int, numClasses int) (feature int, threshold float64, ok bool) {
	if len(idx) == 0 {
		return 0, 0, false
	}
	bestGain := 1e-12
	parent := giniOf(y, w, idx, numClasses)
	total := 0.0
	for _, i := range idx {
		total += w[i]
	}
	leftCounts := make([]float64, numClasses)
	rightCounts := make([]float64, numClasses)
	for f, order := range orders {
		clear(leftCounts)
		clear(rightCounts)
		for _, i := range order {
			rightCounts[y[i]] += w[i]
		}
		var leftW float64
		for pos := 0; pos < len(order)-1; pos++ {
			i := order[pos]
			leftCounts[y[i]] += w[i]
			rightCounts[y[i]] -= w[i]
			leftW += w[i]
			if X[order[pos+1]][f] <= X[i][f] {
				continue
			}
			rightW := total - leftW
			gain := parent - (leftW*giniFromCounts(leftCounts, leftW)+
				rightW*giniFromCounts(rightCounts, rightW))/total
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (X[i][f] + X[order[pos+1]][f]) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func oracleTree(X [][]float64, y []int, w []float64, numClasses, maxDepth int) *Tree {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return &Tree{root: oracleBuild(X, y, w, idx, numClasses, maxDepth), numClasses: numClasses}
}

// oracleAdaBoost is TrainAdaBoost without the memo shared across rounds.
func oracleAdaBoost(X [][]float64, y []int, numClasses int, cfg AdaBoostConfig) *AdaBoost {
	n := len(X)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	model := &AdaBoost{numClasses: numClasses}
	for round := 0; round < cfg.Rounds; round++ {
		tree := oracleTree(X, y, w, numClasses, cfg.MaxDepth)
		var err float64
		miss := make([]bool, n)
		for i := range X {
			if tree.Predict(X[i]) != y[i] {
				miss[i] = true
				err += w[i]
			}
		}
		if err <= 1e-12 {
			model.trees = append(model.trees, tree)
			model.alphas = append(model.alphas, 10)
			break
		}
		if err >= 1-1/float64(numClasses) {
			break
		}
		alpha := math.Log((1-err)/err) + math.Log(float64(numClasses-1))
		model.trees = append(model.trees, tree)
		model.alphas = append(model.alphas, alpha)
		var total float64
		for i := range w {
			if miss[i] {
				w[i] *= math.Exp(alpha)
			}
			total += w[i]
		}
		for i := range w {
			w[i] /= total
		}
	}
	if len(model.trees) == 0 {
		model.trees = append(model.trees, oracleTree(X, y, w, numClasses, 0))
		model.alphas = append(model.alphas, 1)
	}
	return model
}

// sameNode reports whether two trees split on the same features at the same
// threshold bits and predict the same leaf classes.
func sameNode(a, b *treeNode) bool {
	if a.leaf || b.leaf {
		return a.leaf == b.leaf && a.class == b.class
	}
	return a.feature == b.feature &&
		math.Float64bits(a.threshold) == math.Float64bits(b.threshold) &&
		sameNode(a.left, b.left) && sameNode(a.right, b.right)
}

// overlappingSamples draws attack samples whose per-label message sizes
// overlap, so boosting runs many rounds over integer-valued, tie-heavy
// features.
func overlappingSamples(seed int64, numClasses, n int) ([][]float64, []int, []Sample) {
	rng := rand.New(rand.NewSource(seed))
	sizes := map[int][]int{}
	for l := 0; l < numClasses; l++ {
		for i := 0; i < 60; i++ {
			sizes[l] = append(sizes[l], 400+l*25+rng.Intn(90))
		}
	}
	samples, err := BuildSamples(sizes, n, rng)
	if err != nil {
		panic(err)
	}
	X := make([][]float64, len(samples))
	y := make([]int, len(samples))
	for i, s := range samples {
		X[i], y[i] = s.Features, s.Label
	}
	return X, y, samples
}

// TestAdaBoostMatchesOracle: the ensemble fitted with memoized sort orders
// has the uncached fit's alphas (bit for bit) and trees, at depths where
// paths are one and two splits long.
func TestAdaBoostMatchesOracle(t *testing.T) {
	for _, depth := range []int{2, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, k := range []int{2, 4} {
				X, y, _ := overlappingSamples(seed, k, 300)
				cfg := AdaBoostConfig{Rounds: 50, MaxDepth: depth}
				got, err := TrainAdaBoost(X, y, k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleAdaBoost(X, y, k, cfg)
				if got.Rounds() != want.Rounds() {
					t.Fatalf("depth %d seed %d k %d: %d rounds, oracle %d", depth, seed, k, got.Rounds(), want.Rounds())
				}
				for r := range want.trees {
					if math.Float64bits(got.alphas[r]) != math.Float64bits(want.alphas[r]) {
						t.Errorf("depth %d seed %d k %d round %d: alpha %v, oracle %v", depth, seed, k, r, got.alphas[r], want.alphas[r])
					}
					if !sameNode(got.trees[r].root, want.trees[r].root) {
						t.Errorf("depth %d seed %d k %d round %d: tree differs from oracle", depth, seed, k, r)
					}
				}
			}
		}
	}
}

// TestCrossValidatePinned: cross-validation results recorded from the tree
// builder before the sort-order memo, at depths 2 and 3.
func TestCrossValidatePinned(t *testing.T) {
	pins := []struct {
		depth     int
		meanBits  uint64
		confusion [][]int
	}{
		{2, 0x3feceeeeeeeeeef0, [][]int{{68, 12, 0}, {9, 70, 1}, {0, 1, 79}}},
		{3, 0x3fed99999999999a, [][]int{{69, 11, 0}, {5, 74, 1}, {0, 1, 79}}},
	}
	for _, p := range pins {
		_, _, samples := overlappingSamples(9, 3, 240)
		res, err := CrossValidate(samples, 3, 5, AdaBoostConfig{Rounds: 50, MaxDepth: p.depth}, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.MeanAccuracy) != p.meanBits {
			t.Errorf("depth %d: mean accuracy %v (bits %#x), pinned %#x", p.depth, res.MeanAccuracy, math.Float64bits(res.MeanAccuracy), p.meanBits)
		}
		if !slices.EqualFunc(res.Confusion, p.confusion, slices.Equal) {
			t.Errorf("depth %d: confusion %v, pinned %v", p.depth, res.Confusion, p.confusion)
		}
	}
}

// FuzzSortPairs: sortPairs orders (value, index) pairs in exactly the
// permutation sort.Slice gives the indices under the value comparison, ties
// and NaNs included, so a column's order is the order the tree builder had
// before the dense columns.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{3, 3, 3, 1, 1, 2, 2, 2, 2, 0, 0, 3, 1, 2, 3, 0, 1, 1, 1, 1})
	f.Add([]byte{200, 17, 90, 3, 128, 255, 0, 64, 32, 1, 7, 7, 7, 7, 90, 2, 30, 1})
	f.Add([]byte{255, 255, 1, 0, 255})
	// Long enough for pdqsort's partitions and pattern breaking, not only
	// its insertion sort.
	long := make([]byte, 600)
	rand.New(rand.NewSource(2)).Read(long)
	long[0] = 5
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The first byte sets how many distinct values the rest map onto,
		// so most inputs are heavy with ties; 255 reads as NaN.
		distinct := 1 + int(data[0])%16
		data = data[1:]
		vals := make([]float64, len(data))
		for i, b := range data {
			vals[i] = float64(int(b) % distinct)
			if b == 255 {
				vals[i] = math.NaN()
			}
		}
		order := make([]int, len(vals))
		pairs := make([]valIdx, len(vals))
		for i := range vals {
			order[i] = i
			pairs[i] = valIdx{vals[i], i}
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		sortPairs(pairs)
		for p := range pairs {
			if pairs[p].i != order[p] {
				t.Fatalf("position %d: sortPairs index %d, sort.Slice %d (values %v)", p, pairs[p].i, order[p], vals)
			}
		}
	})
}
