package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitio"
)

// Standard is the paper's baseline encoder: it packs the collected count,
// the time indices, and the raw fixed-point values into a payload whose size
// is proportional to the collection count. This proportionality is exactly
// the message-size side-channel (§2.2, observation 2).
type Standard struct {
	cfg Config
}

// NewStandard returns a Standard encoder/decoder for the task configuration.
func NewStandard(cfg Config) (*Standard, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Standard{cfg: cfg}, nil
}

// MaxPayloadBytes returns the size of a full batch (k = T), which the Padded
// defense pads every message to.
func (s *Standard) MaxPayloadBytes() int {
	return StandardPayloadBytes(s.cfg.T, s.cfg.T, s.cfg.D, s.cfg.Format.Width)
}

// Encode implements Encoder.
func (s *Standard) Encode(b Batch) ([]byte, error) { return s.AppendEncode(nil, b) }

// AppendEncode implements AppendEncoder.
//
//age:hotpath
func (s *Standard) AppendEncode(dst []byte, b Batch) ([]byte, error) {
	if err := b.Validate(s.cfg.T, s.cfg.D); err != nil {
		return nil, err
	}
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, b.Indices, s.cfg.T)
	g := oneGroup(len(b.Indices), s.cfg.Format)
	packGroups(&w, g[:], b.Values)
	w.Align()
	return w.Bytes(), nil
}

// Decode implements Decoder.
func (s *Standard) Decode(payload []byte) (Batch, error) {
	var b Batch
	if err := s.DecodeInto(&b, payload); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// DecodeInto implements IntoDecoder. On error *b's contents are unspecified.
//
//age:hotpath
func (s *Standard) DecodeInto(b *Batch, payload []byte) error {
	var r bitio.Reader
	r.Reset(payload)
	idx, err := readIndexBlockInto(&r, s.cfg.T, b.Indices[:0])
	b.Indices = idx
	if err != nil {
		return err
	}
	g := oneGroup(len(idx), s.cfg.Format)
	if b.Values, err = unpackGroups(&r, g[:], s.cfg.D, b.Values[:0]); err != nil {
		return fmt.Errorf("core: standard decode: %w", err)
	}
	return nil
}

// Index blocks carry which time steps were collected. Two encodings exist,
// and the writer picks the cheaper one per batch (the flag byte says which):
// an explicit list (2-byte count + k packed indices) for sparse batches, or
// a T-bit presence bitmask for dense ones. For long sequences like MNIST
// (T = 784) the bitmask costs a constant 98 bytes where explicit indices
// would cost up to 980.
const (
	indexEncodingExplicit = 0
	indexEncodingBitmask  = 1
)

// indexBlockBits returns the exact bit cost of the index block for k
// collected measurements: the flag byte plus the cheaper encoding.
func indexBlockBits(k, T int) int {
	explicit := 16 + k*indexBits(T)
	if T < explicit {
		return 8 + T
	}
	return 8 + explicit
}

// writeIndexBlock writes the flag byte and the cheaper index encoding. Both
// encodings go through the word-at-a-time kernels: the bitmask is assembled
// 64 positions per write instead of bit by bit, and the explicit list streams
// through a RunWriter.
func writeIndexBlock(w *bitio.Writer, indices []int, T int) {
	if T < 16+len(indices)*indexBits(T) {
		w.WriteBits(indexEncodingBitmask, 8)
		pos := 0
		for t := 0; t < T; t += 64 {
			n := min(T-t, 64)
			var word uint64
			for pos < len(indices) && indices[pos] < t+n {
				word |= 1 << uint(n-1-(indices[pos]-t)) // MSB-first within the field
				pos++
			}
			w.WriteBits64(word, n)
		}
		return
	}
	w.WriteBits(indexEncodingExplicit, 8)
	w.WriteUint16(uint16(len(indices)))
	rw := w.StartRun(indexBits(T))
	for _, idx := range indices {
		rw.Add(uint64(idx))
	}
	rw.Flush()
}

// readIndexBlock reads either index encoding written by writeIndexBlock.
func readIndexBlock(r *bitio.Reader, T int) ([]int, error) {
	return readIndexBlockInto(r, T, nil)
}

// readIndexBlockInto is readIndexBlock appending into dst. On error the
// partially filled dst is returned alongside it so callers can keep the
// storage.
func readIndexBlockInto(r *bitio.Reader, T int, dst []int) ([]int, error) {
	flag, err := r.ReadBits(8)
	if err != nil {
		return dst, fmt.Errorf("core: reading index flag: %w", err)
	}
	switch flag {
	case indexEncodingBitmask:
		for t := 0; t < T; t += 64 {
			n := min(T-t, 64)
			word, err := r.ReadBits64(n)
			if err != nil {
				return dst, fmt.Errorf("core: reading index bitmask: %w", err)
			}
			// MSB-align and scan set bits, cheap for sparse masks.
			for word <<= 64 - uint(n); word != 0; {
				j := bits.LeadingZeros64(word)
				dst = append(dst, t+j)
				word &^= 1 << uint(63-j)
			}
		}
		return dst, nil
	case indexEncodingExplicit:
		k, err := r.ReadUint16()
		if err != nil {
			return dst, fmt.Errorf("core: reading count: %w", err)
		}
		if int(k) > T {
			return dst, fmt.Errorf("core: count %d exceeds T = %d", k, T)
		}
		ib := indexBits(T)
		var tmp [64]uint64
		for i := 0; i < int(k); i += len(tmp) {
			n := min(int(k)-i, len(tmp))
			if err := r.ReadRun(tmp[:n], ib); err != nil {
				return dst, fmt.Errorf("core: reading index %d: %w", i, err)
			}
			for j := 0; j < n; j++ {
				dst = append(dst, int(tmp[j]))
			}
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("core: unknown index encoding %d", flag)
	}
}

// Padded implements the message-padding defense the paper compares against
// (analogous to BuFLO, §5.1): Standard encoding padded with zero bytes to
// the largest possible batch size. It closes the side-channel but inflates
// every message to the worst case, and the extra radio energy causes the
// budget violations seen in Tables 4, 9, and 10.
type Padded struct {
	std *Standard
	max int
}

// NewPadded returns a Padded encoder. Like the paper's setup, it pads to the
// size of the largest batch (k = T).
func NewPadded(cfg Config) (*Padded, error) {
	std, err := NewStandard(cfg)
	if err != nil {
		return nil, err
	}
	return &Padded{std: std, max: std.MaxPayloadBytes()}, nil
}

// PayloadBytes returns the fixed message size (the maximum batch size).
func (p *Padded) PayloadBytes() int { return p.max }

// Encode implements Encoder.
func (p *Padded) Encode(b Batch) ([]byte, error) { return p.AppendEncode(nil, b) }

// AppendEncode implements AppendEncoder.
//
//age:hotpath
func (p *Padded) AppendEncode(dst []byte, b Batch) ([]byte, error) {
	raw, err := p.std.AppendEncode(dst, b)
	if err != nil {
		return nil, err
	}
	n := len(raw)
	raw = slices.Grow(raw, p.max-n)[:p.max]
	clear(raw[n:])
	return raw, nil
}

// Decode implements Decoder. The Standard header's count field makes the
// padding self-delimiting, but the envelope itself is fixed-size: any other
// length violates the contract and is rejected like in the other fixed-size
// decoders.
func (p *Padded) Decode(payload []byte) (Batch, error) {
	if len(payload) != p.max {
		return Batch{}, fmt.Errorf("core: padded decode: payload %dB, want exactly %dB: %w", len(payload), p.max, ErrPayloadLength)
	}
	return p.std.Decode(payload)
}

// DecodeInto implements IntoDecoder.
//
//age:hotpath
func (p *Padded) DecodeInto(b *Batch, payload []byte) error {
	if len(payload) != p.max {
		return fmt.Errorf("core: padded decode: payload %dB, want exactly %dB: %w", len(payload), p.max, ErrPayloadLength)
	}
	return p.std.DecodeInto(b, payload)
}
