package core

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

// The reuse contract: steady-state AppendEncode/DecodeInto must not allocate
// per batch once the scratch pools and caller buffers are warm. GC is
// disabled during measurement so a collection cannot empty the sync.Pool
// mid-run and show up as a spurious allocation.
func measureAllocs(t *testing.T, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm pools and buffers
	return testing.AllocsPerRun(50, f)
}

// requireZeroAllocs fails unless steady-state AppendEncode of batch and
// DecodeInto of its payload allocate nothing, and returns the payload.
func requireZeroAllocs(t *testing.T, kind Kind, enc AppendEncoder, dec IntoDecoder, batch Batch) []byte {
	t.Helper()
	var payload []byte
	var out Batch
	if got := measureAllocs(t, func() {
		var err error
		if payload, err = enc.AppendEncode(payload[:0], batch); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}); got != 0 {
		t.Errorf("%s AppendEncode steady state allocates %.1f/op, want 0", kind, got)
	}
	if got := measureAllocs(t, func() {
		if err := dec.DecodeInto(&out, payload); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}); got != 0 {
		t.Errorf("%s DecodeInto steady state allocates %.1f/op, want 0", kind, got)
	}
	return payload
}

func TestAGEEncodeDecodeAllocs(t *testing.T) {
	cfg := testConfig(TargetBytesForRate(0.7, 50, 6, 16))
	a := mustAGE(t, cfg)
	rng := rand.New(rand.NewSource(21))
	batch := randomBatch(rng, cfg.T, cfg.D, 40, 3.5)
	payload := requireZeroAllocs(t, KindAGE, a, a, batch)
	// The reuse path must produce the same bytes as the allocating path.
	direct, err := a.Encode(batch)
	if err != nil {
		t.Fatal(err)
	}
	if string(direct) != string(payload) {
		t.Error("AppendEncode output differs from Encode")
	}
}

func TestStandardEncodeDecodeAllocs(t *testing.T) {
	cfg := testConfig(0)
	s, err := NewStandard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	requireZeroAllocs(t, KindStandard, s, s, randomBatch(rng, cfg.T, cfg.D, 40, 3.5))
}

// TestEveryEncoderEncodeDecodeAllocs extends the reuse contract to all six
// kinds: the ablations and the Padded defense share AGE's and Standard's
// value codec, so none of them may allocate per batch either.
func TestEveryEncoderEncodeDecodeAllocs(t *testing.T) {
	cfg := testConfig(TargetBytesForRate(0.7, 50, 6, 16))
	rng := rand.New(rand.NewSource(24))
	batch := randomBatch(rng, cfg.T, cfg.D, 40, 3.5)
	for _, kind := range Kinds() {
		enc, dec, err := NewEncoder(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireZeroAllocs(t, kind, enc, dec, batch)
	}
}

// All package encoders must offer both reuse interfaces: core.NewEncoder
// returns them, and the simulator's hot loop has no other path.
func TestAllEncodersImplementReusePaths(t *testing.T) {
	for _, c := range allEncoders(t, testConfig(220)) {
		if _, ok := c.e.(AppendEncoder); !ok {
			t.Errorf("%s does not implement AppendEncoder", c.kind)
		}
		if _, ok := c.e.(IntoDecoder); !ok {
			t.Errorf("%s does not implement IntoDecoder", c.kind)
		}
	}
}

// kindedEncoder pairs an encoder with the Kind that names it in failures.
type kindedEncoder struct {
	kind Kind
	e    Encoder
}

// allEncoders builds every encoder variant from its own constructor.
func allEncoders(t *testing.T, cfg Config) []kindedEncoder {
	t.Helper()
	age := mustAGE(t, cfg)
	std, _ := NewStandard(cfg)
	pad, _ := NewPadded(cfg)
	single, _ := NewSingle(cfg)
	unsh, _ := NewUnshifted(cfg)
	pruned, _ := NewPruned(cfg)
	return []kindedEncoder{
		{KindAGE, age}, {KindStandard, std}, {KindPadded, pad},
		{KindSingle, single}, {KindUnshifted, unsh}, {KindPruned, pruned},
	}
}

// TestReusePathsMatchAllocatingPaths round-trips every encoder through both
// paths and requires byte- and value-identical results: the de-allocation
// refactor must be invisible on the wire.
func TestReusePathsMatchAllocatingPaths(t *testing.T) {
	cfg := testConfig(220)
	rng := rand.New(rand.NewSource(23))
	for _, c := range allEncoders(t, cfg) {
		e := c.e
		var buf []byte
		var dec Batch
		for trial := 0; trial < 20; trial++ {
			k := rng.Intn(cfg.T) + 1
			b := randomBatch(rng, cfg.T, cfg.D, k, 3.5)
			direct, err := e.Encode(b)
			if err != nil {
				t.Fatalf("%s: %v", c.kind, err)
			}
			buf, err = e.(AppendEncoder).AppendEncode(buf[:0], b)
			if err != nil {
				t.Fatalf("%s append: %v", c.kind, err)
			}
			if string(direct) != string(buf) {
				t.Fatalf("%s trial %d: AppendEncode bytes differ from Encode", c.kind, trial)
			}
			want, err := e.(Decoder).Decode(direct)
			if err != nil {
				t.Fatalf("%s decode: %v", c.kind, err)
			}
			if err := e.(IntoDecoder).DecodeInto(&dec, buf); err != nil {
				t.Fatalf("%s decode into: %v", c.kind, err)
			}
			if len(dec.Indices) != len(want.Indices) {
				t.Fatalf("%s trial %d: DecodeInto %d indices, Decode %d", c.kind, trial, len(dec.Indices), len(want.Indices))
			}
			for i := range want.Indices {
				if dec.Indices[i] != want.Indices[i] {
					t.Fatalf("%s trial %d: index %d differs", c.kind, trial, i)
				}
				for f := range want.Values[i] {
					if dec.Values[i][f] != want.Values[i][f] {
						t.Fatalf("%s trial %d: value [%d][%d] differs", c.kind, trial, i, f)
					}
				}
			}
		}
	}
}

func BenchmarkAGEAppendEncodeActivity(b *testing.B) {
	cfg := testConfig(TargetBytesForRate(0.7, 50, 6, 16))
	a, _ := NewAGE(cfg)
	rng := rand.New(rand.NewSource(1))
	batch := randomBatch(rng, cfg.T, cfg.D, 40, 3.5)
	var payload []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if payload, err = a.AppendEncode(payload[:0], batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAGEDecodeIntoActivity(b *testing.B) {
	cfg := testConfig(TargetBytesForRate(0.7, 50, 6, 16))
	a, _ := NewAGE(cfg)
	rng := rand.New(rand.NewSource(1))
	payload, err := a.Encode(randomBatch(rng, cfg.T, cfg.D, 40, 3.5))
	if err != nil {
		b.Fatal(err)
	}
	var dec Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.DecodeInto(&dec, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStandardAppendEncodeActivity(b *testing.B) {
	cfg := testConfig(0)
	s, _ := NewStandard(cfg)
	rng := rand.New(rand.NewSource(1))
	batch := randomBatch(rng, cfg.T, cfg.D, 40, 3.5)
	var payload []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if payload, err = s.AppendEncode(payload[:0], batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStandardDecodeIntoActivity(b *testing.B) {
	cfg := testConfig(0)
	s, _ := NewStandard(cfg)
	rng := rand.New(rand.NewSource(1))
	payload, err := s.Encode(randomBatch(rng, cfg.T, cfg.D, 40, 3.5))
	if err != nil {
		b.Fatal(err)
	}
	var dec Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.DecodeInto(&dec, payload); err != nil {
			b.Fatal(err)
		}
	}
}
