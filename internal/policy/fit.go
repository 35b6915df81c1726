package policy

import (
	"fmt"
	"math"
)

// This file implements the offline training step both threshold-based
// adaptive policies require (§5.1): for each energy budget, choose the
// threshold whose average collection rate over the training data matches the
// budget's Uniform rate. Collection rate decreases monotonically in the
// threshold for both Linear and Deviation, so a bisection search suffices.

// AdaptiveKind names a threshold-based adaptive policy for fitting.
type AdaptiveKind string

// The two threshold-based adaptive policies.
const (
	KindLinear    AdaptiveKind = "linear"
	KindDeviation AdaptiveKind = "deviation"
)

// NewAdaptive constructs a policy of the given kind with a threshold.
func NewAdaptive(kind AdaptiveKind, threshold float64) (Policy, error) {
	switch kind {
	case KindLinear:
		return NewLinear(threshold), nil
	case KindDeviation:
		return NewDeviation(threshold), nil
	default:
		return nil, fmt.Errorf("policy: unknown adaptive kind %q", kind)
	}
}

// FitResult reports a fitted threshold and the collection rate it achieves
// on the training data.
type FitResult struct {
	Threshold    float64
	AchievedRate float64
}

// Fit bisects for the threshold at which the policy's mean collection rate
// over train matches targetRate. train holds the training sequences (each
// T x d). The fit is deterministic given the sequences. It is FitRates with
// one target.
func Fit(kind AdaptiveKind, train [][][]float64, targetRate float64) (FitResult, error) {
	res, err := FitRates(kind, train, []float64{targetRate})
	if err != nil {
		return FitResult{}, err
	}
	return res[0], nil
}

// FitRates fits one threshold per target rate, in targets' order. Each
// target runs its own bisection, exactly as a lone Fit would, but every
// probe's rate comes from one memo shared across the targets, keyed by the
// probe's bits. The rate at a threshold is a pure function of (kind, train,
// threshold), and a replayed walk collects what a cold start collects (see
// thresholdWalk), so a memo hit is the rate a fresh probe would measure and
// every result is bit for bit the lone fit's. The bisections of different
// targets share their first probes, so the memo spares most of them.
func FitRates(kind AdaptiveKind, train [][][]float64, targets []float64) ([]FitResult, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("policy: empty training set")
	}
	if len(train[0]) == 0 {
		return nil, fmt.Errorf("policy: empty training sequence")
	}
	// Threshold upper bound: the largest consecutive L1 step in the data;
	// beyond it the policy never resets and collects its minimum.
	top := 1e-9
	for _, seq := range train {
		for t := 1; t < len(seq); t++ {
			if d := l1(seq[t], seq[t-1]); d > top {
				top = d
			}
		}
	}
	top *= float64(len(train[0][0])) // headroom for multi-feature EWMA sums
	r, err := newThresholdReplay(kind, train)
	if err != nil {
		return nil, err
	}
	memo := map[uint64]float64{}
	rate := func(th float64) float64 {
		key := math.Float64bits(th)
		v, ok := memo[key]
		if !ok {
			v = r.rate(th)
			memo[key] = v
		}
		return v
	}
	out := make([]FitResult, len(targets))
	for i, target := range targets {
		out[i] = bisectThreshold(rate, top, target)
	}
	return out, nil
}

// bisectThreshold bisects [0, hi] for the threshold whose rate matches
// targetRate. Rate is monotone non-increasing in the threshold: rate(0) is
// the maximum, rate(hi) the minimum. Unreachable targets clamp.
func bisectThreshold(rate func(float64) float64, hi, targetRate float64) FitResult {
	lo := 0.0
	if rate(hi) >= targetRate {
		return FitResult{Threshold: hi, AchievedRate: rate(hi)}
	}
	if rate(lo) <= targetRate {
		return FitResult{Threshold: lo, AchievedRate: rate(lo)}
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if rate(mid) > targetRate {
			lo = mid
		} else {
			hi = mid
		}
	}
	th := (lo + hi) / 2
	return FitResult{Threshold: th, AchievedRate: rate(th)}
}

// thresholdPolicy is a policy whose walk replays across thresholds.
type thresholdPolicy interface {
	replay(w *thresholdWalk, th float64)
}

// thresholdReplay holds one walk per non-empty training sequence for the
// span of one FitRates call.
type thresholdReplay struct {
	p     thresholdPolicy
	walks []*thresholdWalk
	total int
}

func newThresholdReplay(kind AdaptiveKind, train [][][]float64) (*thresholdReplay, error) {
	p, err := NewAdaptive(kind, 0)
	if err != nil {
		return nil, err
	}
	r := &thresholdReplay{p: p.(thresholdPolicy)}
	for _, seq := range train {
		r.total += len(seq)
		if len(seq) == 0 {
			continue
		}
		nf := 0 // Deviation's walks store its running mean
		if kind == KindDeviation {
			nf = len(seq[0])
		}
		r.walks = append(r.walks, newThresholdWalk(seq, nf))
	}
	return r, nil
}

// rate returns the mean collection rate over the training set at th.
func (r *thresholdReplay) rate(th float64) float64 {
	var collected int
	for _, w := range r.walks {
		r.p.replay(w, th)
		collected += len(w.idx)
	}
	return float64(collected) / float64(r.total)
}
