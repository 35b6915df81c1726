package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fixedpoint"
)

// fixedSizeEncoder is the common surface of all size-standardizing encoders.
type fixedSizeEncoder interface {
	Encoder
	Decoder
	PayloadBytes() int
}

// newVariants builds all four fixed-size encoders for a config.
func newVariants(t *testing.T, cfg Config) map[string]fixedSizeEncoder {
	t.Helper()
	a, err := NewAGE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnshifted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPruned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]fixedSizeEncoder{"age": a, "single": s, "unshifted": u, "pruned": p}
}

// TestAllVariantsFixedSize: every §5.6 variant closes the side-channel by
// construction — any batch encodes to exactly TargetBytes.
func TestAllVariantsFixedSize(t *testing.T) {
	cfg := testConfig(180)
	encs := newVariants(t, cfg)
	rng := rand.New(rand.NewSource(21))
	for name, enc := range encs {
		for _, k := range []int{0, 1, 9, 30, 50} {
			b := randomBatch(rng, cfg.T, cfg.D, k, 3.9)
			payload, err := enc.Encode(b)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if len(payload) != cfg.TargetBytes {
				t.Fatalf("%s k=%d: %dB, want %d", name, k, len(payload), cfg.TargetBytes)
			}
			if got, err := enc.Decode(payload); err != nil {
				t.Fatalf("%s k=%d decode: %v", name, k, err)
			} else if err := got.Validate(cfg.T, cfg.D); err != nil {
				t.Fatalf("%s k=%d decoded batch invalid: %v", name, k, err)
			}
		}
	}
}

func TestVariantsQuickDecodable(t *testing.T) {
	cfg := testConfig(120)
	encs := newVariants(t, cfg)
	for name, enc := range encs {
		enc := enc
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			k := rng.Intn(cfg.T + 1)
			b := randomBatch(rng, cfg.T, cfg.D, k, 3.9)
			payload, err := enc.Encode(b)
			if err != nil || len(payload) != cfg.TargetBytes {
				return false
			}
			got, err := enc.Decode(payload)
			return err == nil && got.Validate(cfg.T, cfg.D) == nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSingleDropsAllWhenOverfull(t *testing.T) {
	// The §4.2 failure mode: k=50, d=6 at a 35-byte target leaves no room
	// for even one bit per value, so Single drops the whole batch.
	cfg := testConfig(35)
	s, err := NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	payload, err := s.Encode(randomBatch(rng, cfg.T, cfg.D, cfg.T, 3.5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("Single kept %d measurements; quantization alone cannot meet this target", got.Len())
	}
	// AGE keeps a subset under the same conditions (contrast).
	a := mustAGE(t, cfg)
	payload, err = a.Encode(randomBatch(rng, cfg.T, cfg.D, cfg.T, 3.5))
	if err != nil {
		t.Fatal(err)
	}
	got, err = a.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Error("AGE also dropped everything; pruning should prevent this")
	}
}

func TestSingleRoundTripModerate(t *testing.T) {
	cfg := testConfig(400)
	s, err := NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	b := randomBatch(rng, cfg.T, cfg.D, 30, 3.5)
	payload, err := s.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 30 {
		t.Fatalf("decoded %d of 30", got.Len())
	}
	for i := range got.Values {
		for f := range got.Values[i] {
			if math.Abs(got.Values[i][f]-b.Values[i][f]) > 0.51 {
				t.Fatalf("error %g too large for moderate target", math.Abs(got.Values[i][f]-b.Values[i][f]))
			}
		}
	}
}

func TestUnshiftedEvenGroups(t *testing.T) {
	cfg := testConfig(200)
	u, err := NewUnshifted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := u.unshiftedGroups(nil, 50)
	if len(groups) != 6 {
		t.Fatalf("got %d groups, want 6", len(groups))
	}
	total := 0
	for _, g := range groups {
		if g.count < 8 || g.count > 9 {
			t.Errorf("uneven group count %d", g.count)
		}
		if g.exponent != cfg.Format.NonFrac {
			t.Errorf("exponent %d, want static %d", g.exponent, cfg.Format.NonFrac)
		}
		total += g.count
	}
	if total != 50 {
		t.Errorf("groups cover %d, want 50", total)
	}
	// Fewer measurements than groups: one group per measurement.
	if got := u.unshiftedGroups(nil, 4); len(got) != 4 {
		t.Errorf("k=4 gave %d groups", len(got))
	}
	if got := u.unshiftedGroups(nil, 0); got != nil {
		t.Errorf("k=0 gave %v", got)
	}
}

func TestUnshiftedStaticExponentHurtsSmallValues(t *testing.T) {
	// With a large native exponent (n0=5) and small data, Unshifted wastes
	// integer bits that AGE reclaims: AGE must have lower error.
	cfg := Config{T: 50, D: 1, Format: fixedpoint.Format{Width: 7, NonFrac: 5}, TargetBytes: 40}
	a := mustAGE(t, cfg)
	u, err := NewUnshifted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	var ageErr, unsErr float64
	for trial := 0; trial < 20; trial++ {
		b := randomBatch(rng, cfg.T, 1, 50, 0.9)
		for _, c := range []struct {
			enc fixedSizeEncoder
			sum *float64
		}{{a, &ageErr}, {u, &unsErr}} {
			payload, err := c.enc.Encode(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.enc.Decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			byIdx := map[int]float64{}
			for i, ix := range got.Indices {
				byIdx[ix] = got.Values[i][0]
			}
			for i, ix := range b.Indices {
				if v, ok := byIdx[ix]; ok {
					*c.sum += math.Abs(v - b.Values[i][0])
				} else {
					*c.sum += math.Abs(b.Values[i][0])
				}
			}
		}
	}
	if ageErr >= unsErr {
		t.Errorf("AGE error %g not below Unshifted %g on small-valued data", ageErr, unsErr)
	}
}

func TestPrunedKeepsFullWidth(t *testing.T) {
	cfg := testConfig(200)
	p, err := NewPruned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	b := randomBatch(rng, cfg.T, cfg.D, 50, 3.5)
	payload, err := p.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.Len() >= 50 {
		t.Fatalf("Pruned kept %d of 50; expected a strict subset", got.Len())
	}
	// Whatever survives is at native precision.
	byIdx := map[int][]float64{}
	for i, ix := range b.Indices {
		byIdx[ix] = b.Values[i]
	}
	for i, ix := range got.Indices {
		orig := byIdx[ix]
		for f := range got.Values[i] {
			if math.Abs(got.Values[i][f]-orig[f]) > cfg.Format.Resolution()/2+1e-9 {
				t.Fatalf("pruned value error %g exceeds native resolution", math.Abs(got.Values[i][f]-orig[f]))
			}
		}
	}
	// Pruned keeps far fewer measurements than AGE at the same target.
	a := mustAGE(t, cfg)
	agePayload, err := a.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	ageGot, err := a.Decode(agePayload)
	if err != nil {
		t.Fatal(err)
	}
	if ageGot.Len() <= got.Len() {
		t.Errorf("AGE kept %d <= Pruned %d; AGE's quantization should retain more measurements", ageGot.Len(), got.Len())
	}
}

// TestVariantsRejectTinyTargets checks that each ablation refuses a 2-byte
// target, which cannot hold even the empty-batch header at T=50.
func TestVariantsRejectTinyTargets(t *testing.T) {
	cfg := testConfig(2)
	if _, err := NewSingle(cfg); err == nil {
		t.Error("Single accepted 2-byte target")
	}
	if _, err := NewUnshifted(cfg); err == nil {
		t.Error("Unshifted accepted 2-byte target")
	}
	if _, err := NewPruned(cfg); err == nil {
		t.Error("Pruned accepted 2-byte target")
	}
}
