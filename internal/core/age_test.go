package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fixedpoint"
)

func mustAGE(t *testing.T, cfg Config) *AGE {
	t.Helper()
	a, err := NewAGE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAGEFixedSizeProperty(t *testing.T) {
	// THE security property (§5.3): every batch, any collection count,
	// encodes to exactly TargetBytes.
	cfg := testConfig(220)
	a := mustAGE(t, cfg)
	prop := func(seed int64, kseed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kseed)%cfg.T + 1
		payload, err := a.Encode(randomBatch(rng, cfg.T, cfg.D, k, 3.9))
		return err == nil && len(payload) == cfg.TargetBytes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAGEFixedSizeAcrossTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, target := range []int{35, 60, 98, 220, 640, 1000} {
		cfg := testConfig(target)
		a := mustAGE(t, cfg)
		for _, k := range []int{1, 5, 25, 50} {
			payload, err := a.Encode(randomBatch(rng, cfg.T, cfg.D, k, 3.9))
			if err != nil {
				t.Fatalf("target=%d k=%d: %v", target, k, err)
			}
			if len(payload) != target {
				t.Fatalf("target=%d k=%d: got %dB", target, k, len(payload))
			}
		}
	}
}

func TestAGERoundTripGeneral(t *testing.T) {
	// Decode must recover the kept indices exactly and values within the
	// assigned quantization error.
	cfg := testConfig(400)
	a := mustAGE(t, cfg)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		k := rng.Intn(cfg.T) + 1
		b := randomBatch(rng, cfg.T, cfg.D, k, 3.9)
		payload, err := a.Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() > b.Len() {
			t.Fatalf("decoded more measurements (%d) than sent (%d)", got.Len(), b.Len())
		}
		// Every decoded index must be one of the originals, in order.
		pos := map[int]int{}
		for i, idx := range b.Indices {
			pos[idx] = i
		}
		prev := -1
		for i, idx := range got.Indices {
			oi, ok := pos[idx]
			if !ok || idx <= prev {
				t.Fatalf("decoded index %d invalid", idx)
			}
			prev = idx
			for f := range got.Values[i] {
				if math.Abs(got.Values[i][f]-b.Values[oi][f]) > 0.55 {
					// 0.55 > max quantization step for w_min=5
					// bits with 3 integer bits (step 0.5).
					t.Fatalf("trial %d: value error %g too large (idx %d feat %d)",
						trial, math.Abs(got.Values[i][f]-b.Values[oi][f]), idx, f)
				}
			}
		}
	}
}

func TestAGEUnderSamplingNearLossless(t *testing.T) {
	// When the policy under-samples (k well below the target rate), AGE
	// has room for full-width values: error collapses to the native
	// format's quantization step.
	cfg := testConfig(TargetBytesForRate(0.7, 50, 6, 16))
	a := mustAGE(t, cfg)
	rng := rand.New(rand.NewSource(6))
	b := randomBatch(rng, cfg.T, cfg.D, 10, 3.5) // 10 of 50 collected
	payload, err := a.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 {
		t.Fatalf("under-sampled batch pruned: %d of 10 kept", got.Len())
	}
	for i := range got.Values {
		for f := range got.Values[i] {
			if diff := math.Abs(got.Values[i][f] - b.Values[i][f]); diff > cfg.Format.Resolution()/2+1e-9 {
				t.Fatalf("under-sampling error %g exceeds native resolution", diff)
			}
		}
	}
}

func TestAGEOverSamplingPrunes(t *testing.T) {
	// Extreme over-sampling: k=T but the target only affords ~35 bytes
	// (the §4.2 example shape). AGE must keep a pruned subset, not drop
	// everything.
	cfg := testConfig(35)
	a := mustAGE(t, cfg)
	rng := rand.New(rand.NewSource(7))
	b := randomBatch(rng, cfg.T, cfg.D, cfg.T, 3.5)
	payload, err := a.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("AGE dropped all measurements; pruning should keep a subset")
	}
	if got.Len() >= cfg.T {
		t.Fatalf("kept %d of %d; pruning expected", got.Len(), cfg.T)
	}
	if len(payload) != 35 {
		t.Fatalf("payload %dB, want 35", len(payload))
	}
}

func TestAGEEmptyBatch(t *testing.T) {
	cfg := testConfig(100)
	a := mustAGE(t, cfg)
	payload, err := a.Encode(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 100 {
		t.Fatalf("empty batch payload %dB", len(payload))
	}
	got, err := a.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("decoded %d from empty", got.Len())
	}
}

func TestAGEPruneKeepsLastMeasurement(t *testing.T) {
	cfg := testConfig(35)
	a := mustAGE(t, cfg)
	rng := rand.New(rand.NewSource(8))
	b := randomBatch(rng, cfg.T, cfg.D, cfg.T, 3.5)
	idx, _ := a.prune(b.Indices, b.Values)
	if len(idx) == 0 {
		t.Fatal("prune dropped everything")
	}
	if idx[len(idx)-1] != b.Indices[len(b.Indices)-1] {
		t.Errorf("last measurement pruned: kept %v", idx)
	}
}

func TestAGEPruneFavorsFlatRegions(t *testing.T) {
	// Construct a batch with a flat first half and volatile second half:
	// pruning should preferentially remove flat measurements.
	cfg := testConfig(100)
	a := mustAGE(t, cfg)
	k := cfg.T
	idx := make([]int, k)
	vals := make([][]float64, k)
	for i := 0; i < k; i++ {
		idx[i] = i
		row := make([]float64, cfg.D)
		if i >= k/2 {
			for f := range row {
				row[f] = 3.5 * math.Sin(float64(i*(f+3)))
			}
		}
		vals[i] = row
	}
	keptIdx, _ := a.prune(idx, vals)
	if len(keptIdx) >= k {
		t.Skip("no pruning at this target")
	}
	var flat, volatile int
	for _, i := range keptIdx {
		if i < k/2 {
			flat++
		} else {
			volatile++
		}
	}
	if volatile <= flat {
		t.Errorf("pruning kept %d flat vs %d volatile; should favor volatile", flat, volatile)
	}
}

func TestRLEGroups(t *testing.T) {
	vals := [][]float64{
		{0.5}, {0.4}, // exponent 1
		{1.5}, {1.2}, {1.9}, // exponent 2
		{0.1}, // exponent 1
		{3.5}, // exponent 3
	}
	groups := rleGroups(vals, 8)
	want := []group{{count: 2, exponent: 1}, {count: 3, exponent: 2}, {count: 1, exponent: 1}, {count: 1, exponent: 3}}
	if len(groups) != len(want) {
		t.Fatalf("groups = %+v", groups)
	}
	for i := range want {
		if groups[i].count != want[i].count || groups[i].exponent != want[i].exponent {
			t.Fatalf("group %d = %+v, want %+v", i, groups[i], want[i])
		}
	}
}

func TestRLEGroupsClampToFormat(t *testing.T) {
	groups := rleGroups([][]float64{{1e9}}, 3)
	if groups[0].exponent != 3 {
		t.Errorf("exponent %d not clamped to 3", groups[0].exponent)
	}
}

func TestMergeGroupsRespectsCap(t *testing.T) {
	var groups []group
	for i := 0; i < 40; i++ {
		groups = append(groups, group{count: 1 + i%3, exponent: 1 + i%4})
	}
	merged := mergeGroups(append([]group(nil), groups...), 6)
	if len(merged) != 6 {
		t.Fatalf("merged to %d groups, want 6", len(merged))
	}
	// Totals preserved.
	var before, after int
	for _, g := range groups {
		before += g.count
	}
	for _, g := range merged {
		after += g.count
	}
	if before != after {
		t.Errorf("merge lost measurements: %d -> %d", before, after)
	}
}

func TestMergeGroupsTakesMaxExponent(t *testing.T) {
	groups := []group{{count: 1, exponent: 2}, {count: 1, exponent: 5}}
	merged := mergeGroups(groups, 1)
	if len(merged) != 1 || merged[0].exponent != 5 {
		t.Fatalf("merged = %+v, want exponent 5", merged)
	}
}

func TestMergeGroupsPrefersLowScore(t *testing.T) {
	// Score = c1 + c2 + 2|n1-n2|. The middle pair (1+1+0=2) beats the
	// outer pairs (1+1+2*3=8).
	groups := []group{
		{count: 1, exponent: 1},
		{count: 1, exponent: 4},
		{count: 1, exponent: 4},
		{count: 1, exponent: 1},
	}
	merged := mergeGroups(groups, 3)
	if len(merged) != 3 || merged[1].count != 2 || merged[1].exponent != 4 {
		t.Fatalf("merged = %+v; middle pair should merge first", merged)
	}
}

func TestGroupCapExpandsWhenUnderSampling(t *testing.T) {
	cfg := testConfig(640) // full-batch size
	a := mustAGE(t, cfg)
	small := a.groupCap(10) // 10 measurements leave lots of free space
	large := a.groupCap(50) // full batch leaves none
	if small <= large {
		t.Errorf("group cap should expand when under-sampling: k=10 cap %d, k=50 cap %d", small, large)
	}
	if large < a.cfg.MinGroups || large > a.cfg.MinGroups+2 {
		t.Errorf("over-sampling cap = %d, want about G0 = %d", large, a.cfg.MinGroups)
	}
}

func TestAGEWidthsMimicFractionalBits(t *testing.T) {
	// §4.4 example shape: with groups, byte utilization must beat the
	// single-width floor. Use a batch whose values share an exponent.
	cfg := testConfig(220)
	a := mustAGE(t, cfg)
	k := 50
	idx := make([]int, k)
	vals := make([][]float64, k)
	for i := range idx {
		idx[i] = i
		row := make([]float64, cfg.D)
		for f := range row {
			row[f] = 0.5 + 0.1*float64(f%3) // all exponent 1
		}
		vals[i] = row
	}
	sc := new(ageScratch)
	groups := a.formGroups(sc, vals)
	groups = a.assignWidths(sc, groups, k)
	if len(groups) < 2 {
		t.Skip("merging produced one group; fractional mimicry not exercised")
	}
	// Widths must not all be equal (round-robin gave +1 somewhere), or if
	// they are equal they must saturate the native width.
	allSame := true
	for _, g := range groups[1:] {
		if g.width != groups[0].width {
			allSame = false
		}
	}
	if allSame && groups[0].width < cfg.Format.Width {
		t.Errorf("all widths %d with slack available; round-robin failed", groups[0].width)
	}
}

func TestAGEDynamicRangeBeatsStatic(t *testing.T) {
	// §4.3 motivation: data with small values encoded under a tight
	// budget. AGE's per-group exponents must beat a static-exponent
	// (Single) encoder on reconstruction error.
	cfg := Config{T: 50, D: 1, Format: fixedpoint.Format{Width: 7, NonFrac: 5}, TargetBytes: 40}
	a := mustAGE(t, cfg)
	s, err := NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var ageErr, singleErr float64
	for trial := 0; trial < 20; trial++ {
		b := randomBatch(rng, cfg.T, 1, 50, 1.9) // small values: need n=2, static gives n=5
		for _, enc := range []struct {
			encode func(Batch) ([]byte, error)
			decode func([]byte) (Batch, error)
			sum    *float64
		}{
			{a.Encode, a.Decode, &ageErr},
			{s.Encode, s.Decode, &singleErr},
		} {
			payload, err := enc.encode(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := enc.decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			byIdx := map[int][]float64{}
			for i, ix := range got.Indices {
				byIdx[ix] = got.Values[i]
			}
			for i, ix := range b.Indices {
				if row, ok := byIdx[ix]; ok {
					*enc.sum += math.Abs(row[0] - b.Values[i][0])
				} else {
					*enc.sum += math.Abs(b.Values[i][0]) // dropped: counts as full error
				}
			}
		}
	}
	if ageErr >= singleErr {
		t.Errorf("AGE error %g not below static-exponent error %g", ageErr, singleErr)
	}
}

// TestAGERejectsTinyTarget walks AGE and its three ablations over tiny
// targets around the empty-batch header (2 bytes of index block for T <= 8,
// 3 above, plus AGE's, Single's and Unshifted's 1-byte group count or
// width). Each config must be rejected with ErrTargetTooSmall, or encode an
// empty and a one-row batch to exactly TargetBytes and decode both; a
// constructor that accepts a target it cannot pad to panics in PadTo.
func TestAGERejectsTinyTarget(t *testing.T) {
	format := fixedpoint.Format{Width: 16, NonFrac: 3}
	for _, T := range []int{1, 8, 9, 16, 784} {
		batches := []Batch{{}, {Indices: []int{T - 1}, Values: [][]float64{{0.5, -1.25}}}}
		for _, kind := range []Kind{KindAGE, KindSingle, KindUnshifted, KindPruned} {
			for target := 1; target <= 8; target++ {
				cfg := Config{T: T, D: 2, Format: format, TargetBytes: target}
				if err := tinyTargetRoundTrip(kind, cfg, batches); err != nil {
					t.Errorf("%s T=%d target %dB: %v", kind, T, target, err)
				}
			}
		}
	}
}

// tinyTargetRoundTrip builds kind at cfg and, unless the constructor
// rejects the target, round-trips every batch, turning a panic into an
// error.
func tinyTargetRoundTrip(kind Kind, cfg Config, batches []Batch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("accepted, then panicked: %v", r)
		}
	}()
	enc, dec, err := NewEncoder(kind, cfg)
	if err != nil {
		if !errors.Is(err, ErrTargetTooSmall) {
			return fmt.Errorf("rejected without ErrTargetTooSmall: %w", err)
		}
		return nil
	}
	for _, b := range batches {
		payload, err := enc.Encode(b)
		if err != nil {
			return fmt.Errorf("accepted, then %d-row encode failed: %w", b.Len(), err)
		}
		if len(payload) != cfg.TargetBytes {
			return fmt.Errorf("accepted, then %d-row batch encoded to %dB", b.Len(), len(payload))
		}
		got, err := dec.Decode(payload)
		if err != nil {
			return fmt.Errorf("accepted, then %d-row payload failed to decode: %w", b.Len(), err)
		}
		if got.Len() > b.Len() {
			return fmt.Errorf("%d-row batch decoded to %d rows", b.Len(), got.Len())
		}
	}
	return nil
}

func TestAGEDecodeRejectsCorruptHeaders(t *testing.T) {
	cfg := testConfig(100)
	a := mustAGE(t, cfg)
	// Groups that claim more measurements than the index count.
	payload := make([]byte, 100)
	payload[1] = 2 // k' = 2
	payload[4] = 3 // group count lives after 2 indices (2B + 12 bits -> byte 4)
	got, err := a.Decode(payload)
	if err == nil && got.Len() != 0 {
		t.Error("corrupt group table accepted")
	}
}

func TestAGELargeT(t *testing.T) {
	// EOG-like shape: T=1250, d=1, 20-bit values.
	cfg := Config{T: 1250, D: 1, Format: fixedpoint.Format{Width: 20, NonFrac: 12}, TargetBytes: 800}
	a, err := NewAGE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	b := randomBatch(rng, cfg.T, 1, 1250, 1300)
	payload, err := a.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 800 {
		t.Fatalf("payload %dB", len(payload))
	}
	got, err := a.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("no measurements survived")
	}
}

func TestAGEQuickRoundTripDecodable(t *testing.T) {
	cfg := testConfig(150)
	a := mustAGE(t, cfg)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(cfg.T) + 1
		b := randomBatch(rng, cfg.T, cfg.D, k, 3.9)
		payload, err := a.Encode(b)
		if err != nil || len(payload) != cfg.TargetBytes {
			return false
		}
		got, err := a.Decode(payload)
		return err == nil && got.Validate(cfg.T, cfg.D) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAGEEncodeActivity(b *testing.B) {
	cfg := testConfig(TargetBytesForRate(0.7, 50, 6, 16))
	a, _ := NewAGE(cfg)
	rng := rand.New(rand.NewSource(1))
	batch := randomBatch(rng, cfg.T, cfg.D, 40, 3.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Encode(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStandardEncodeActivity(b *testing.B) {
	cfg := testConfig(0)
	s, _ := NewStandard(cfg)
	rng := rand.New(rand.NewSource(1))
	batch := randomBatch(rng, cfg.T, cfg.D, 40, 3.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(batch); err != nil {
			b.Fatal(err)
		}
	}
}
