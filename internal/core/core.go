// Package core implements the paper's primary contribution, Adaptive Group
// Encoding (AGE, §4), together with the encoders it is evaluated against:
// the Standard variable-length encoder, the Padded (BuFLO-style) defense
// (§5.1), and the Single / Unshifted / Pruned ablation variants (§5.6).
//
// An encoder turns one batch of collected measurements into a radio payload;
// a decoder recovers the (possibly quantized) measurements and their time
// indices. AGE and the other defense encoders emit exactly TargetBytes for
// every batch, making the payload size independent of the adaptive policy's
// collection rate; the Standard encoder's size grows with the collection
// count, which is the side-channel the paper attacks.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/fixedpoint"
)

// Batch is one communication window's worth of collected measurements.
type Batch struct {
	// Indices holds the original time step of each collected measurement
	// (the paper's alpha_t), strictly increasing, in [0, T). The sampling
	// times are data-driven — exactly what the attack reconstructs — so
	// they are secret for leaktaint.
	Indices []int //age:secret
	// Values holds one row per collected measurement, each with d
	// features.
	Values [][]float64 //age:secret
}

// Len returns the number of collected measurements k.
func (b Batch) Len() int { return len(b.Indices) }

// Validate checks structural invariants: matching lengths, strictly
// increasing indices within [0, T), and consistent feature counts.
func (b Batch) Validate(T, d int) error {
	if len(b.Indices) != len(b.Values) {
		return fmt.Errorf("core: %d indices but %d value rows", len(b.Indices), len(b.Values))
	}
	prev := -1
	for i, idx := range b.Indices {
		if idx <= prev || idx >= T {
			return fmt.Errorf("core: index %d at position %d not strictly increasing in [0, %d)", idx, i, T)
		}
		prev = idx
		if len(b.Values[i]) != d {
			return fmt.Errorf("core: row %d has %d features, want %d", i, len(b.Values[i]), d)
		}
	}
	return nil
}

// Config describes the sensing task an encoder is built for.
type Config struct {
	// T is the maximum measurements per batch (the sequence length).
	T int
	// D is the number of features per measurement.
	D int
	// Format is the sensor's native fixed-point representation (w0, n0).
	Format fixedpoint.Format
	// TargetBytes is M_B, the fixed message size for size-standardizing
	// encoders. Ignored by Standard.
	TargetBytes int
	// MinWidth is the paper's w_min: pruning guarantees every remaining
	// value at least this many bits (§4.2). Zero means the default of 5.
	MinWidth int
	// MinGroups is the paper's G_0: the group cap is never below this
	// (§4.3). Zero means the default of 6.
	MinGroups int
}

func (c Config) withDefaults() Config {
	if c.MinWidth == 0 {
		c.MinWidth = 5
	}
	if c.MinGroups == 0 {
		c.MinGroups = 6
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.T < 1 {
		return fmt.Errorf("core: T = %d must be positive", c.T)
	}
	if c.D < 1 {
		return fmt.Errorf("core: D = %d must be positive", c.D)
	}
	return c.Format.Validate()
}

// Encoder converts a batch to a payload.
type Encoder interface {
	// Encode serializes the batch. Size-standardizing encoders always
	// return exactly TargetBytes.
	Encode(b Batch) ([]byte, error)
}

// Decoder recovers a batch from a payload.
type Decoder interface {
	Decode(payload []byte) (Batch, error)
}

// AppendEncoder is an Encoder with an allocation-free steady-state path,
// and the one encode path every caller runs, one batch per call:
// AppendEncode writes the payload into dst's storage (growing it only when
// the capacity is insufficient) and returns the resulting slice. Callers that
// feed the previous payload back in as dst — the simulator's sensors, the
// load generator's sources — allocate nothing per batch once warm. All six
// encoders in this package implement it; Encode(b) is AppendEncode(nil, b).
type AppendEncoder interface {
	Encoder
	AppendEncode(dst []byte, b Batch) ([]byte, error)
}

// IntoDecoder is a Decoder with a reuse path: DecodeInto overwrites *b,
// reusing its index and value storage (including the per-row slices) when
// capacities allow, so steady-state decodes allocate nothing. All six
// decoders in this package implement it; Decode is DecodeInto on a zero
// Batch. On error *b's contents are unspecified.
type IntoDecoder interface {
	Decoder
	DecodeInto(b *Batch, payload []byte) error
}

// appendRow extends vals by one d-length row, reusing spare slice capacity
// and any previously allocated row storage before falling back to make. The
// returned row is zeroed only as far as the caller overwrites it, so callers
// must assign every feature.
func appendRow(vals [][]float64, d int) [][]float64 {
	if cap(vals) > len(vals) {
		vals = vals[:len(vals)+1]
		if row := vals[len(vals)-1]; cap(row) >= d {
			vals[len(vals)-1] = row[:d]
			return vals
		}
		vals[len(vals)-1] = make([]float64, d)
		return vals
	}
	return append(vals, make([]float64, d))
}

// indexBits returns the bits needed to store one time index in [0, T).
func indexBits(T int) int {
	if T <= 1 {
		return 1
	}
	return bits.Len(uint(T - 1))
}

// StandardPayloadBytes returns the payload size the Standard encoder
// produces for k collected measurements: the index block (explicit list or
// presence bitmask, whichever is cheaper) and k*d fixed-point values at the
// native width, byte-aligned.
func StandardPayloadBytes(k, T, d, width int) int {
	bits := indexBlockBits(k, T) + k*d*width
	return (bits + 7) / 8
}

// TargetBytesForRate returns the paper's M_B for a collection rate rho: the
// Standard payload size for floor(rho*T) measurements (§4.1).
func TargetBytesForRate(rate float64, T, d, width int) int {
	k := int(rate * float64(T))
	if k < 1 {
		k = 1
	}
	if k > T {
		k = T
	}
	return StandardPayloadBytes(k, T, d, width)
}

// ReduceTarget applies AGE's communication reduction (§4.5): the target
// shrinks by about 30 bytes plus 20 bytes per 500-byte multiple of M_B,
// which more than pays for AGE's extra compute energy. The result never
// drops below the minimum viable AGE message.
func ReduceTarget(mb int) int {
	r := mb - 30 - 20*(mb/500)
	if r < 8 {
		r = 8
	}
	return r
}
