// Package attack implements the paper's practical adversary (§5.4): an
// ensemble of depth-limited decision trees fit with AdaBoost (SAMME) on
// features of observed encrypted message sizes, evaluated with stratified
// five-fold cross-validation. A policy with no leakage forces this attacker
// down to predicting the most frequent event.
package attack

import (
	"math"
	"slices"
)

// treeNode is one node of a weighted CART decision tree.
type treeNode struct {
	// Leaf fields.
	leaf  bool
	class int
	// Split fields.
	feature   int
	threshold float64
	left      *treeNode // feature value <= threshold
	right     *treeNode
}

// Tree is a depth-limited decision tree trained with sample weights.
type Tree struct {
	root       *treeNode
	numClasses int
}

// TrainTree fits a CART tree of at most maxDepth levels minimizing weighted
// Gini impurity. X is row-major samples, y the class labels, w the sample
// weights (need not be normalized).
func TrainTree(X [][]float64, y []int, w []float64, numClasses, maxDepth int) *Tree {
	return trainTree(X, y, w, numClasses, maxDepth, newSortNode(len(X)))
}

// trainTree fits a tree whose root samples are root.idx, reusing whatever
// sort orders root's trie already holds from earlier trees over the same X.
func trainTree(X [][]float64, y []int, w []float64, numClasses, maxDepth int, root *sortNode) *Tree {
	t := &Tree{numClasses: numClasses}
	t.root = t.build(X, y, w, root, maxDepth)
	return t
}

// build recursively grows the tree over the samples of node.
func (t *Tree) build(X [][]float64, y []int, w []float64, node *sortNode, depth int) *treeNode {
	idx := node.idx
	major, pure := weightedMajority(y, w, idx, t.numClasses)
	if depth == 0 || pure || len(idx) < 2 {
		return &treeNode{leaf: true, class: major}
	}
	feature, threshold, ok := bestSplit(y, w, idx, node.sorted(X, y), t.numClasses)
	if !ok {
		return &treeNode{leaf: true, class: major}
	}
	left, right := node.split(X, feature, threshold)
	if len(left.idx) == 0 || len(right.idx) == 0 {
		return &treeNode{leaf: true, class: major}
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      t.build(X, y, w, left, depth-1),
		right:     t.build(X, y, w, right, depth-1),
	}
}

// sortNode memoizes, for one node of a tree over a fixed X, its samples and
// their per-feature sorted columns. The root's samples are 0..n-1 in order,
// and a child keeps its parent's order when filtered, so a node's samples
// are a pure function of its path of splits from the root. sortPairs
// returns the same permutation for the same input, so a cached column is
// exactly the order a fresh sort would give, ties included. Boosting rounds
// that revisit a path therefore skip its sorts.
type sortNode struct {
	idx []int
	// cols[f] holds idx sorted by feature f; nil until first needed.
	cols []column
	// kids maps a split to its left and right children.
	kids map[splitKey][2]*sortNode
}

// column is a node's samples sorted by one feature, gathered once into flat
// slices so a split scan reads them in order: pairs[p] is the p-th sample's
// value and index, and cls[p] its class.
type column struct {
	pairs []valIdx
	cls   []int
}

// splitKey names a split by feature and threshold bits.
type splitKey struct {
	feature   int
	threshold uint64
}

// newSortNode returns the root node over samples 0..n-1.
func newSortNode(n int) *sortNode {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return &sortNode{idx: idx}
}

// sorted returns the node's per-feature sorted columns, sorting on first
// use.
func (s *sortNode) sorted(X [][]float64, y []int) []column {
	if s.cols != nil {
		return s.cols
	}
	n, nf := len(s.idx), len(X[s.idx[0]])
	s.cols = make([]column, nf)
	pairs := make([]valIdx, nf*n)
	cls := make([]int, nf*n)
	for f := range s.cols {
		c := column{pairs: pairs[f*n : (f+1)*n], cls: cls[f*n : (f+1)*n]}
		for p, i := range s.idx {
			c.pairs[p] = valIdx{X[i][f], i}
		}
		sortPairs(c.pairs)
		for p, pr := range c.pairs {
			c.cls[p] = y[pr.i]
		}
		s.cols[f] = c
	}
	return s.cols
}

// valIdx is a sample's feature value and index.
type valIdx struct {
	v float64
	i int
}

// sortPairs sorts pairs by value. slices.SortFunc and sort.Slice are
// generated from one pdqsort template, and the comparison is negative
// exactly when sort.Slice's less holds, so the permutation is the one
// sort.Slice gives over the indices, ties included (FuzzSortPairs).
func sortPairs(pairs []valIdx) {
	slices.SortFunc(pairs, func(a, b valIdx) int {
		if a.v < b.v {
			return -1
		}
		if b.v < a.v {
			return 1
		}
		return 0
	})
}

// split returns the children of the split X[i][feature] <= threshold.
func (s *sortNode) split(X [][]float64, feature int, threshold float64) (left, right *sortNode) {
	key := splitKey{feature, math.Float64bits(threshold)}
	if kids, ok := s.kids[key]; ok {
		return kids[0], kids[1]
	}
	left, right = &sortNode{}, &sortNode{}
	for _, i := range s.idx {
		if X[i][feature] <= threshold {
			left.idx = append(left.idx, i)
		} else {
			right.idx = append(right.idx, i)
		}
	}
	if s.kids == nil {
		s.kids = map[splitKey][2]*sortNode{}
	}
	s.kids[key] = [2]*sortNode{left, right}
	return left, right
}

// weightedMajority returns the weight-heaviest class among idx and whether
// the set is pure.
func weightedMajority(y []int, w []float64, idx []int, numClasses int) (int, bool) {
	counts := make([]float64, numClasses)
	first := -1
	pure := true
	for _, i := range idx {
		counts[y[i]] += w[i]
		if first == -1 {
			first = y[i]
		} else if y[i] != first {
			pure = false
		}
	}
	best := 0
	for c := 1; c < numClasses; c++ {
		if counts[c] > counts[best] {
			best = c
		}
	}
	return best, pure
}

// bestSplit scans every feature for the weighted-Gini-optimal threshold.
// cols[f] holds idx sorted by feature f.
func bestSplit(y []int, w []float64, idx []int, cols []column, numClasses int) (feature int, threshold float64, ok bool) {
	if len(idx) == 0 {
		return 0, 0, false
	}
	bestGain := 1e-12
	parent := giniOf(y, w, idx, numClasses)
	total := 0.0
	for _, i := range idx {
		total += w[i]
	}
	// Incremental class-weight tallies for the left partition.
	leftCounts := make([]float64, numClasses)
	rightCounts := make([]float64, numClasses)
	for f, c := range cols {
		clear(leftCounts)
		clear(rightCounts)
		for p, pr := range c.pairs {
			rightCounts[c.cls[p]] += w[pr.i]
		}
		var leftW float64
		for pos := 0; pos < len(c.pairs)-1; pos++ {
			cur, next := c.pairs[pos], c.pairs[pos+1]
			wi, k := w[cur.i], c.cls[pos]
			leftCounts[k] += wi
			rightCounts[k] -= wi
			leftW += wi
			// Only split between distinct feature values.
			if next.v <= cur.v {
				continue
			}
			rightW := total - leftW
			gain := parent - (leftW*giniFromCounts(leftCounts, leftW)+
				rightW*giniFromCounts(rightCounts, rightW))/total
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (cur.v + next.v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func giniOf(y []int, w []float64, idx []int, numClasses int) float64 {
	counts := make([]float64, numClasses)
	var total float64
	for _, i := range idx {
		counts[y[i]] += w[i]
		total += w[i]
	}
	return giniFromCounts(counts, total)
}

func giniFromCounts(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / total
		g -= p * p
	}
	return g
}

// Predict returns the tree's class for a feature vector.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Depth returns the tree's height (a single leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	return 1 + int(math.Max(float64(l), float64(r)))
}
