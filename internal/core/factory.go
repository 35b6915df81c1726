package core

import "fmt"

// Kind names an encoder variant. It is the single source of truth for the
// six evaluated encoders; the simulator and the public root package alias
// it rather than redefining their own copies.
type Kind string

// The six evaluated encoders.
const (
	KindStandard  Kind = "standard"
	KindPadded    Kind = "padded"
	KindAGE       Kind = "age"
	KindSingle    Kind = "single"
	KindUnshifted Kind = "unshifted"
	KindPruned    Kind = "pruned"
)

// Kinds lists every encoder variant this package implements, in evaluation
// order (baseline, defense baseline, contribution, ablations).
func Kinds() []Kind {
	return []Kind{KindStandard, KindPadded, KindAGE, KindSingle, KindUnshifted, KindPruned}
}

// FixedSize reports whether the encoder emits same-sized messages (closing
// the side-channel). Only Standard leaks: its payload grows with the
// collection count.
func (k Kind) FixedSize() bool { return k != KindStandard }

// NewEncoder is the unified constructor over every encoder variant: it
// builds the encoder/decoder pair for kind with the given configuration.
// All six concrete types implement both halves, reuse paths included, on
// one value, so the two returned interfaces share state where the format
// requires it. An unimplemented kind returns an error wrapping
// ErrUnknownEncoder.
//
// The config is used as given: callers that want the paper's target sizing
// (ReduceTarget, cipher rounding) apply it to cfg.TargetBytes first.
func NewEncoder(kind Kind, cfg Config) (AppendEncoder, IntoDecoder, error) {
	switch kind {
	case KindStandard:
		s, err := NewStandard(cfg)
		if err != nil {
			return nil, nil, err
		}
		return s, s, nil
	case KindPadded:
		p, err := NewPadded(cfg)
		if err != nil {
			return nil, nil, err
		}
		return p, p, nil
	case KindAGE:
		a, err := NewAGE(cfg)
		if err != nil {
			return nil, nil, err
		}
		return a, a, nil
	case KindSingle:
		s, err := NewSingle(cfg)
		if err != nil {
			return nil, nil, err
		}
		return s, s, nil
	case KindUnshifted:
		u, err := NewUnshifted(cfg)
		if err != nil {
			return nil, nil, err
		}
		return u, u, nil
	case KindPruned:
		p, err := NewPruned(cfg)
		if err != nil {
			return nil, nil, err
		}
		return p, p, nil
	default:
		return nil, nil, fmt.Errorf("core: %w %q", ErrUnknownEncoder, kind)
	}
}
