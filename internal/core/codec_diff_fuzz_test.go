package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixedpoint"
)

// Differential fuzzing of the shared value codec: every encoder's
// AppendEncode and DecodeInto against the per-format loops they replaced
// (loop_oracle_test.go), for every kind and every fuzzConfigs shape. The
// wire format must not move by one bit, and a decoder must accept exactly
// what the old one accepted.

// diffSeedCorpus adds a valid payload of every kind and shape, so the
// decode fuzzer starts inside each format rather than only inside AGE's
// and Standard's.
func diffSeedCorpus(f *testing.F) {
	seedCorpus(f)
	rng := rand.New(rand.NewSource(2))
	for _, cfg := range fuzzConfigs() {
		b := randomBatch(rng, cfg.T, cfg.D, rng.Intn(cfg.T)+1, 3)
		for _, kind := range Kinds() {
			enc, _, err := NewEncoder(kind, cfg)
			if err != nil {
				f.Fatal(err)
			}
			payload, err := enc.Encode(b)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
}

// FuzzDecodeIntoDiff decodes arbitrary bytes with every kind's DecodeInto
// and its reference loop, requiring the same error-ness and, on success, a
// bit-equal batch.
func FuzzDecodeIntoDiff(f *testing.F) {
	diffSeedCorpus(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		for ci, cfg := range fuzzConfigs() {
			for _, kind := range Kinds() {
				_, dec, err := NewEncoder(kind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got, want Batch
				gotErr := dec.DecodeInto(&got, payload)
				wantErr := oracleDecodeInto(kind, dec, &want, payload)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s config %d: DecodeInto error %v, reference %v", kind, ci, gotErr, wantErr)
				}
				if gotErr == nil {
					requireBitEqual(t, kind, ci, got, want)
				}
			}
		}
	})
}

// FuzzAppendEncodeDiff encodes a batch derived from the fuzz bytes with
// every kind's AppendEncode and its reference loop, requiring equal bytes.
func FuzzAppendEncodeDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{7, 1, 0x80, 0x7F, 0x01, 0xFE, 0x33, 0xC4})
	f.Add([]byte{19, 3, 0xFF, 0x00, 0x10, 0x90, 0x55, 0xAA, 0x0F, 0xF0, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		for ci, cfg := range fuzzConfigs() {
			b := fuzzBatch(data, cfg)
			for _, kind := range Kinds() {
				enc, _, err := NewEncoder(kind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, gotErr := enc.AppendEncode(nil, b)
				want, wantErr := oracleEncode(kind, enc, b)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s config %d: AppendEncode error %v, reference %v", kind, ci, gotErr, wantErr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s config %d (k=%d): AppendEncode bytes differ from the reference loop\n got %x\nwant %x",
						kind, ci, b.Len(), got, want)
				}
			}
		}
	})
}

// fuzzBatch derives a valid batch for cfg from data, reading it cyclically.
// data[0] picks the largest index step (1..8), and each row takes one byte
// for its step, one for its magnitude (2^-8 .. 2^11, so rows land in many
// exponent groups and some clamp) and one per feature for the mantissa.
func fuzzBatch(data []byte, cfg Config) Batch {
	var b Batch
	if len(data) == 0 {
		return b
	}
	pos := 0
	next := func() byte {
		c := data[pos%len(data)]
		pos++
		return c
	}
	step := int(next()%8) + 1
	for t := int(next()) % step; t < cfg.T; t += int(next())%step + 1 {
		mag := math.Ldexp(1, int(next()%20)-8)
		row := make([]float64, cfg.D)
		for f := range row {
			row[f] = float64(int8(next())) / 128 * mag
		}
		b.Indices = append(b.Indices, t)
		b.Values = append(b.Values, row)
	}
	return b
}

// requireBitEqual fails unless got and want hold the same indices and
// bit-identical values.
func requireBitEqual(t *testing.T, kind Kind, ci int, got, want Batch) {
	t.Helper()
	if len(got.Indices) != len(want.Indices) || len(got.Values) != len(want.Values) {
		t.Fatalf("%s config %d: decoded %d/%d rows, reference %d/%d",
			kind, ci, len(got.Indices), len(got.Values), len(want.Indices), len(want.Values))
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("%s config %d: index %d is %d, reference %d", kind, ci, i, got.Indices[i], want.Indices[i])
		}
	}
	for i := range want.Values {
		if len(got.Values[i]) != len(want.Values[i]) {
			t.Fatalf("%s config %d: row %d has %d features, reference %d", kind, ci, i, len(got.Values[i]), len(want.Values[i]))
		}
		for f := range want.Values[i] {
			if math.Float64bits(got.Values[i][f]) != math.Float64bits(want.Values[i][f]) {
				t.Fatalf("%s config %d: value [%d][%d] is %v, reference %v", kind, ci, i, f, got.Values[i][f], want.Values[i][f])
			}
		}
	}
}

// TestWideRowsMatchReference covers rows wider than unpackGroups' read
// buffer, which no fuzzConfigs shape has: every kind must encode a 100-
// feature batch to the reference bytes and decode it, and every truncation
// of it, as the reference loop does.
func TestWideRowsMatchReference(t *testing.T) {
	cfg := Config{T: 20, D: 100, Format: fixedpoint.Format{Width: 16, NonFrac: 3}, TargetBytes: 1500}
	b := randomBatch(rand.New(rand.NewSource(3)), cfg.T, cfg.D, 12, 3)
	for _, kind := range Kinds() {
		enc, dec, err := NewEncoder(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := enc.AppendEncode(nil, b)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		want, err := oracleEncode(kind, enc, b)
		if err != nil || !bytes.Equal(payload, want) {
			t.Fatalf("%s: AppendEncode bytes differ from the reference loop (reference error %v)", kind, err)
		}
		for n := len(payload); n >= 0; n -= 7 {
			var got, ref Batch
			gotErr := dec.DecodeInto(&got, payload[:n])
			refErr := oracleDecodeInto(kind, dec, &ref, payload[:n])
			if (gotErr == nil) != (refErr == nil) {
				t.Fatalf("%s, %d of %d bytes: DecodeInto error %v, reference %v", kind, n, len(payload), gotErr, refErr)
			}
			if gotErr == nil {
				requireBitEqual(t, kind, -1, got, ref)
			}
		}
	}
}
