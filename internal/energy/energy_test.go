package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// must returns an unwrapper for (mJ, error) pairs the test expects to
// succeed.
func must(t *testing.T) func(float64, error) float64 {
	return func(v float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func TestDefaultAnchoredToPaper(t *testing.T) {
	m, mj := Default(), must(t)
	// §2.1: an HM-10 consumes about 25 mJ to connect and send a 40-byte
	// message.
	if got := mj(m.TransmitMJ(40)); math.Abs(got-25) > 0.2 {
		t.Errorf("40-byte transmit = %g mJ, want about 25", got)
	}
	// §5.8: cutting 30 bytes saves about 0.9 mJ.
	if got := mj(m.TransmitMJ(640)) - mj(m.TransmitMJ(610)); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("30-byte saving = %g mJ, want 0.9", got)
	}
	// §5.8: encoding a full Activity sequence (300 values): AGE about
	// 0.154 mJ (before the safety factor), direct write about 0.016 mJ.
	if got := m.EncodeAGEUJPerValue * 300 / 1000; math.Abs(got-0.154) > 1e-9 {
		t.Errorf("AGE encode = %g mJ, want 0.154", got)
	}
	if got := mj(m.EncodeMJ(300, EncodeStandard)); math.Abs(got-0.016) > 1e-9 {
		t.Errorf("standard encode = %g mJ, want 0.016", got)
	}
	// The simulator conservatively multiplies AGE's compute by 4 (§5.1).
	if got := mj(m.EncodeMJ(300, EncodeAGE)); math.Abs(got-0.154*4) > 1e-9 {
		t.Errorf("scaled AGE encode = %g mJ, want %g", got, 0.154*4)
	}
	// Padded encoders pay the direct-write compute cost.
	if got := mj(m.EncodeMJ(300, EncodePadded)); math.Abs(got-0.016) > 1e-9 {
		t.Errorf("padded encode = %g mJ, want 0.016", got)
	}
}

// TestModelValidation is the table the issue asks for: every negative count
// and every unknown encoder kind must come back as a descriptive error, and
// the valid boundary cases right next to them must not. All the expected
// values are the Default() §2.1/§5.8 constants.
func TestModelValidation(t *testing.T) {
	m := Default()
	cases := []struct {
		name    string
		call    func() (float64, error)
		wantMJ  float64 // checked only when wantErr is ""
		wantErr string
	}{
		{"encode negative count", func() (float64, error) { return m.EncodeMJ(-1, EncodeAGE) }, 0, "non-negative"},
		{"encode unknown kind", func() (float64, error) { return m.EncodeMJ(300, EncoderKind(42)) }, 0, "unknown encoder kind EncoderKind(42)"},
		{"encode zero values", func() (float64, error) { return m.EncodeMJ(0, EncodeAGE) }, 0, ""},
		{"encode paper anchor", func() (float64, error) { return m.EncodeMJ(300, EncodeStandard) }, 0.016, ""},
		{"transmit negative bytes", func() (float64, error) { return m.TransmitMJ(-40) }, 0, "non-negative"},
		{"transmit empty payload costs the connect", func() (float64, error) { return m.TransmitMJ(0) }, 23.8, ""},
		{"collect negative count", func() (float64, error) { return m.CollectMJ(-3) }, 0, "non-negative"},
		{"collect paper anchor", func() (float64, error) { return m.CollectMJ(10) }, 1.1, ""},
		{"sequence negative collected", func() (float64, error) { return m.SequenceMJ(-1, 6, 100, EncodeAGE) }, 0, "non-negative"},
		{"sequence negative payload", func() (float64, error) { return m.SequenceMJ(10, 6, -100, EncodeAGE) }, 0, "non-negative"},
		{"sequence zero features", func() (float64, error) { return m.SequenceMJ(10, 0, 100, EncodeAGE) }, 0, "features"},
		{"sequence unknown kind", func() (float64, error) { return m.SequenceMJ(10, 6, 100, EncoderKind(-7)) }, 0, "unknown encoder kind"},
		{"uniform zero steps", func() (float64, error) { return m.UniformSequenceMJ(0, 6, 0.5, func(k int) int { return k }) }, 0, "steps"},
		{"uniform NaN rate", func() (float64, error) { return m.UniformSequenceMJ(50, 6, math.NaN(), func(k int) int { return k }) }, 0, "NaN"},
		{"uniform nil payload func", func() (float64, error) { return m.UniformSequenceMJ(50, 6, 0.5, nil) }, 0, "payload size function"},
		{"uniform negative payload", func() (float64, error) { return m.UniformSequenceMJ(50, 6, 0.5, func(k int) int { return -k }) }, 0, "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.call()
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("invalid input accepted, returned %g mJ", got)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.wantMJ) > 1e-9 {
				t.Errorf("got %g mJ, want %g", got, tc.wantMJ)
			}
		})
	}
}

func TestEncoderKindString(t *testing.T) {
	cases := []struct {
		kind EncoderKind
		want string
	}{
		{EncodeStandard, "standard"},
		{EncodeAGE, "age"},
		{EncodePadded, "padded"},
		{EncoderKind(9), "EncoderKind(9)"},
	}
	for _, tc := range cases {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.kind), got, tc.want)
		}
		if valid := tc.kind.Valid(); valid != (tc.want != "EncoderKind(9)") {
			t.Errorf("Valid(%d) = %v", int(tc.kind), valid)
		}
	}
}

func TestSequenceMJComposition(t *testing.T) {
	m, mj := Default(), must(t)
	got := mj(m.SequenceMJ(10, 3, 100, EncodeStandard))
	want := m.BaselineMJ + mj(m.CollectMJ(10)) + mj(m.EncodeMJ(30, EncodeStandard)) + mj(m.TransmitMJ(100))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SequenceMJ = %g, want %g", got, want)
	}
}

func TestSequenceMJMonotone(t *testing.T) {
	m := Default()
	prop := func(k1, k2, b1, b2 uint8) bool {
		ka, kb := int(k1), int(k2)
		ba, bb := int(b1), int(b2)
		if ka > kb {
			ka, kb = kb, ka
		}
		if ba > bb {
			ba, bb = bb, ba
		}
		lo, err1 := m.SequenceMJ(ka, 2, ba, EncodeStandard)
		hi, err2 := m.SequenceMJ(kb, 2, bb, EncodeStandard)
		return err1 == nil && err2 == nil && lo <= hi+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMeter(t *testing.T) {
	mt := NewMeter(100)
	if !mt.Charge(60) {
		t.Error("first charge flagged as exceeded")
	}
	if mt.Charge(50) {
		t.Error("overcharge not flagged")
	}
	if !mt.Exceeded() {
		t.Error("meter not exceeded after overcharge")
	}
}

func TestMeterBoundaryExact(t *testing.T) {
	mt := NewMeter(10)
	mt.Charge(10)
	if mt.Exceeded() {
		t.Error("exact budget counted as exceeded")
	}
}

func TestCollectCount(t *testing.T) {
	cases := []struct {
		T    int
		rate float64
		want int
	}{
		{50, 0.7, 35},
		{50, 1.0, 50},
		{50, 0.0, 1},  // floor at one
		{50, 2.0, 50}, // cap at T
		{23, 0.3, 6},
		{25, 0.7, 17}, // the Figure 1 example
	}
	for _, c := range cases {
		if got := CollectCount(c.T, c.rate); got != c.want {
			t.Errorf("CollectCount(%d, %g) = %d, want %d", c.T, c.rate, got, c.want)
		}
	}
}

func TestUniformSequenceMJUsesPayload(t *testing.T) {
	m, mj := Default(), must(t)
	payload := func(k int) int { return 10 * k }
	got := mj(m.UniformSequenceMJ(50, 2, 0.5, payload))
	want := mj(m.SequenceMJ(25, 2, 250, EncodeStandard))
	if got != want {
		t.Errorf("UniformSequenceMJ = %g, want %g", got, want)
	}
}

func BenchmarkSequenceMJ(b *testing.B) {
	m := Default()
	for i := 0; i < b.N; i++ {
		_, _ = m.SequenceMJ(35, 6, 640, EncodeAGE)
	}
}
