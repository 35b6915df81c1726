package attack

import (
	"fmt"
	"math"
)

// AdaBoost is a SAMME-boosted ensemble of depth-limited decision trees — the
// multi-class AdaBoost the paper's attacker uses with 50 trees (§5.4).
type AdaBoost struct {
	trees      []*Tree
	alphas     []float64
	numClasses int
}

// AdaBoostConfig controls the ensemble fit.
type AdaBoostConfig struct {
	// Rounds is the maximum number of boosted trees (the paper uses 50).
	Rounds int
	// MaxDepth limits each weak learner (scikit-learn's AdaBoost default
	// is a depth-1 stump; 2 separates the interleaved size distributions
	// slightly better and stays a weak learner).
	MaxDepth int
}

// DefaultAdaBoostConfig returns the paper's attack configuration.
func DefaultAdaBoostConfig() AdaBoostConfig { return AdaBoostConfig{Rounds: 50, MaxDepth: 2} }

// TrainAdaBoost fits the ensemble with the SAMME algorithm: each round fits
// a weighted tree, weighs it by alpha = ln((1-err)/err) + ln(K-1), and
// upweights the samples it misclassified. Boosting stops early if a learner
// is perfect or no better than chance.
func TrainAdaBoost(X [][]float64, y []int, numClasses int, cfg AdaBoostConfig) (*AdaBoost, error) {
	n := len(X)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("attack: bad training set (%d samples, %d labels)", n, len(y))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("attack: need at least 2 classes, got %d", numClasses)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	model := &AdaBoost{numClasses: numClasses}
	// X is fixed across rounds, so every round's trees share one trie of
	// per-path sort orders (see sortNode).
	sorts := newSortNode(n)
	for round := 0; round < cfg.Rounds; round++ {
		tree := trainTree(X, y, w, numClasses, cfg.MaxDepth, sorts)
		var err float64
		miss := make([]bool, n)
		for i := range X {
			if tree.Predict(X[i]) != y[i] {
				miss[i] = true
				err += w[i]
			}
		}
		if err <= 1e-12 {
			// Perfect learner: it alone decides.
			model.trees = append(model.trees, tree)
			model.alphas = append(model.alphas, 10) // large finite vote
			break
		}
		// SAMME requires err < 1 - 1/K to make progress.
		if err >= 1-1/float64(numClasses) {
			break
		}
		alpha := math.Log((1-err)/err) + math.Log(float64(numClasses-1))
		model.trees = append(model.trees, tree)
		model.alphas = append(model.alphas, alpha)
		// Reweight and renormalize.
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
		// Degenerate data: fall back to a single majority-vote tree.
		model.trees = append(model.trees, TrainTree(X, y, w, numClasses, 0))
		model.alphas = append(model.alphas, 1)
	}
	return model, nil
}

// Rounds returns the number of fitted trees.
func (m *AdaBoost) Rounds() int { return len(m.trees) }

// Predict returns the alpha-weighted plurality class.
func (m *AdaBoost) Predict(x []float64) int {
	votes := make([]float64, m.numClasses)
	for i, tree := range m.trees {
		votes[tree.Predict(x)] += m.alphas[i]
	}
	best := 0
	for c := 1; c < m.numClasses; c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// Accuracy returns the fraction of samples the model classifies correctly.
func (m *AdaBoost) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i := range X {
		if m.Predict(X[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
