package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/stats"
)

// This file assembles the end-to-end attack pipeline of §5.4: an adversary
// who intercepts encrypted batches, groups ten message sizes belonging to
// the same (unknown) event, summarizes them into four features — mean,
// median, standard deviation, IQR — and classifies the event with the
// AdaBoost ensemble, scored by stratified five-fold cross-validation.

// WindowSize is the number of same-event message sizes per attack sample
// (the paper uses ten).
const WindowSize = 10

// Sample is one attack observation: features of a window of message sizes
// plus the true event label (known to the attacker only at training time).
type Sample struct {
	Features []float64
	Label    int //age:secret
}

// WindowFeatures summarizes a window of observed message sizes into the
// attack's four features.
func WindowFeatures(sizes []int) []float64 {
	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s)
	}
	return []float64{stats.Mean(xs), stats.Median(xs), stats.StdDev(xs), stats.IQR(xs)}
}

// BuildSamples draws numSamples attack samples from per-event observed
// message sizes. Events are drawn proportionally to how often they appear in
// sizesByLabel (mirroring the deployment event mix); each sample takes
// WindowSize sizes of that event with replacement.
func BuildSamples(sizesByLabel map[int][]int, numSamples int, rng *rand.Rand) ([]Sample, error) {
	type labelPool struct {
		label int
		sizes []int
	}
	var pools []labelPool
	total := 0
	maxLabel := 0
	for l := 0; l <= maxKey(sizesByLabel); l++ { // deterministic label order
		sizes, ok := sizesByLabel[l]
		if !ok {
			continue
		}
		if len(sizes) == 0 {
			return nil, fmt.Errorf("attack: label %d has no observed sizes", l)
		}
		pools = append(pools, labelPool{label: l, sizes: sizes})
		total += len(sizes)
		if l > maxLabel {
			maxLabel = l
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("attack: no observed sizes")
	}
	samples := make([]Sample, 0, numSamples)
	// Proportional allocation with largest-remainder rounding.
	for pi, p := range pools {
		n := numSamples * len(p.sizes) / total
		if pi == len(pools)-1 {
			n = numSamples - len(samples)
		}
		for i := 0; i < n; i++ {
			window := make([]int, WindowSize)
			for j := range window {
				window[j] = p.sizes[rng.Intn(len(p.sizes))]
			}
			samples = append(samples, Sample{Features: WindowFeatures(window), Label: p.label})
		}
	}
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	return samples, nil
}

func maxKey(m map[int][]int) int {
	max := 0
	for k := range m {
		if k > max {
			max = k
		}
	}
	return max
}

// MajorityBaseline returns the frequency of the most common label among the
// samples: the accuracy of an attacker who learned nothing, and the best
// achievable against a leak-free policy.
func MajorityBaseline(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	counts := map[int]int{}
	best := 0
	for _, s := range samples {
		counts[s.Label]++
		if counts[s.Label] > best {
			best = counts[s.Label]
		}
	}
	return float64(best) / float64(len(samples))
}

// CVResult reports a stratified k-fold cross-validation of the attack.
type CVResult struct {
	// FoldAccuracies holds each fold's test accuracy.
	FoldAccuracies []float64
	// MeanAccuracy averages the folds.
	MeanAccuracy float64
	// Majority is the most-frequent-label baseline on all samples.
	Majority float64
	// Confusion[i][j] counts test samples of true label i predicted as j,
	// summed over folds.
	Confusion [][]int
}

// CrossValidate runs stratified k-fold cross-validation of the AdaBoost
// attack over the samples.
func CrossValidate(samples []Sample, numClasses, k int, cfg AdaBoostConfig, rng *rand.Rand) (CVResult, error) {
	if k < 2 {
		return CVResult{}, fmt.Errorf("attack: need k >= 2 folds, got %d", k)
	}
	if len(samples) < k {
		return CVResult{}, fmt.Errorf("attack: %d samples cannot fill %d folds", len(samples), k)
	}
	if numClasses < 2 {
		return CVResult{}, fmt.Errorf("attack: need numClasses >= 2, got %d", numClasses)
	}
	// Stratify: deal each label's samples round-robin into folds, labels in
	// ascending order.
	byLabel := make([][]int, numClasses)
	distinct := 0
	for i, s := range samples {
		if s.Label < 0 || s.Label >= numClasses {
			return CVResult{}, fmt.Errorf("attack: sample %d has label %d outside [0, %d)", i, s.Label, numClasses)
		}
		if len(byLabel[s.Label]) == 0 {
			distinct++
		}
		byLabel[s.Label] = append(byLabel[s.Label], i)
	}
	// A classifier cross-validated on one class is vacuous (every fold is
	// single-class and accuracy is trivially 1), and a label rarer than k
	// leaves it absent from some training splits, silently skewing the folds.
	// Both are almost certainly caller bugs, so fail loudly, naming the
	// lowest such label.
	if distinct < 2 {
		return CVResult{}, fmt.Errorf("attack: samples contain %d distinct label(s); stratified CV needs at least 2", distinct)
	}
	for l, idx := range byLabel {
		if len(idx) > 0 && len(idx) < k {
			return CVResult{}, fmt.Errorf("attack: label %d has %d sample(s), fewer than k=%d — some folds would miss the class", l, len(idx), k)
		}
	}
	folds := make([][]int, k)
	for _, idx := range byLabel {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, si := range idx {
			folds[i%k] = append(folds[i%k], si)
		}
	}
	res := CVResult{
		Majority:  MajorityBaseline(samples),
		Confusion: make([][]int, numClasses),
	}
	for i := range res.Confusion {
		res.Confusion[i] = make([]int, numClasses)
	}
	for fi := 0; fi < k; fi++ {
		var trainX, testX [][]float64
		var trainY, testY []int
		for fj := 0; fj < k; fj++ {
			for _, si := range folds[fj] {
				if fj == fi {
					testX = append(testX, samples[si].Features)
					testY = append(testY, samples[si].Label)
				} else {
					trainX = append(trainX, samples[si].Features)
					trainY = append(trainY, samples[si].Label)
				}
			}
		}
		model, err := TrainAdaBoost(trainX, trainY, numClasses, cfg)
		if err != nil {
			return CVResult{}, err
		}
		correct := 0
		for i := range testX {
			pred := model.Predict(testX[i])
			res.Confusion[testY[i]][pred]++
			if pred == testY[i] {
				correct++
			}
		}
		if len(testX) > 0 {
			res.FoldAccuracies = append(res.FoldAccuracies, float64(correct)/float64(len(testX)))
		}
	}
	res.MeanAccuracy = stats.Mean(res.FoldAccuracies)
	return res, nil
}
