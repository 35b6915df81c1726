package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/fixedpoint"
)

// This file implements the three AGE ablation variants of §5.6. All three
// emit exactly TargetBytes (so they close the side-channel like AGE); they
// differ in which of AGE's transformations they keep, and the evaluation
// (Table 8) shows each missing piece costs reconstruction error.
//
//   - Single:    one uniform bit width, static exponent (no groups, no RLE).
//   - Unshifted: six even groups with round-robin widths, static exponent.
//   - Pruned:    pruning only; values stay at the native width.

// Single quantizes every value with one global bit width and the native
// number of non-fractional bits. When even one bit per value does not fit,
// it must drop the whole batch — the §4.2 failure mode.
type Single struct {
	cfg Config
}

// NewSingle returns the single-width quantization variant.
func NewSingle(cfg Config) (*Single, error) {
	cfg, err := fixedConfig("Single", cfg, 1)
	if err != nil {
		return nil, err
	}
	return &Single{cfg: cfg}, nil
}

// PayloadBytes returns the fixed message size M_B.
func (s *Single) PayloadBytes() int { return s.cfg.TargetBytes }

// singleHeaderBits is the fixed header: index block + 1B width.
func singleHeaderBits(k, T int) int {
	h := indexBlockBits(k, T)
	return h + roundUp8pad(h) + 8
}

// Encode implements Encoder.
func (s *Single) Encode(b Batch) ([]byte, error) { return s.AppendEncode(nil, b) }

// AppendEncode implements AppendEncoder.
//
//age:hotpath
func (s *Single) AppendEncode(dst []byte, b Batch) ([]byte, error) {
	if err := b.Validate(s.cfg.T, s.cfg.D); err != nil {
		return nil, err
	}
	idx, vals := b.Indices, b.Values
	// Width from the whole-message budget; drop everything if no width >= 1
	// exists (standard fixed-point quantization has no pruning fallback).
	k := len(idx)
	width := 0
	if k > 0 {
		width = min((8*s.cfg.TargetBytes-singleHeaderBits(k, s.cfg.T))/(k*s.cfg.D), s.cfg.Format.Width)
	}
	if width < 1 {
		idx, vals, width = nil, nil, 0
	}
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, idx, s.cfg.T)
	w.Align()
	w.WriteBits(uint32(width), 8)
	if width > 0 {
		g := oneGroup(k, fixedpoint.Format{Width: width, NonFrac: s.cfg.Format.NonFrac})
		packGroups(&w, g[:], vals)
	}
	w.PadTo(s.cfg.TargetBytes)
	return w.Bytes(), nil
}

// Decode implements Decoder. Like AGE, Single's fixed-size contract makes
// any other payload length corruption; reject it up front.
func (s *Single) Decode(payload []byte) (Batch, error) {
	var b Batch
	if err := s.DecodeInto(&b, payload); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// DecodeInto implements IntoDecoder. On error *b's contents are unspecified.
//
//age:hotpath
func (s *Single) DecodeInto(b *Batch, payload []byte) error {
	if len(payload) != s.cfg.TargetBytes {
		return fmt.Errorf("core: single decode: payload %dB, want exactly %dB: %w", len(payload), s.cfg.TargetBytes, ErrPayloadLength)
	}
	var r bitio.Reader
	r.Reset(payload)
	idx, err := readIndexBlockInto(&r, s.cfg.T, b.Indices[:0])
	b.Indices = idx
	b.Values = b.Values[:0]
	if err != nil {
		return err
	}
	r.Align()
	wd, err := r.ReadBits(8)
	if err != nil {
		return fmt.Errorf("core: single decode width: %w", err)
	}
	if wd == 0 {
		// A dropped batch: no values, so no indices either.
		if len(idx) != 0 {
			return fmt.Errorf("core: single decode: zero width with %d indices", len(idx))
		}
		return nil
	}
	g := oneGroup(len(idx), fixedpoint.Format{Width: int(wd), NonFrac: s.cfg.Format.NonFrac})
	if b.Values, err = unpackGroups(&r, g[:], s.cfg.D, b.Values); err != nil {
		return fmt.Errorf("core: single decode: %w", err)
	}
	return nil
}

// Unshifted keeps AGE's group machinery for width assignment — six
// even-sized groups with round-robin widths — but fixes every group's
// exponent at the native n0, forgoing dynamic ranges (§5.6).
type Unshifted struct {
	cfg     Config
	scratch scratchPool // for the group table
}

// NewUnshifted returns the fixed-exponent grouped variant.
func NewUnshifted(cfg Config) (*Unshifted, error) {
	cfg, err := fixedConfig("Unshifted", cfg, 1)
	if err != nil {
		return nil, err
	}
	return &Unshifted{cfg: cfg}, nil
}

// PayloadBytes returns the fixed message size M_B.
func (u *Unshifted) PayloadBytes() int { return u.cfg.TargetBytes }

// unshiftedGroups splits k measurements into at most MinGroups even groups
// at the native exponent, appending them to dst.
func (u *Unshifted) unshiftedGroups(dst []group, k int) []group {
	if k == 0 {
		return dst
	}
	n := min(u.cfg.MinGroups, k)
	base, rem := k/n, k%n
	for i := 0; i < n; i++ {
		c := base
		if i < rem {
			c++
		}
		dst = append(dst, group{count: c, exponent: u.cfg.Format.NonFrac})
	}
	return dst
}

// headerBits is the index block, byte-aligned, + 1B group count + 3B per
// group (2B run length + 1B width; no exponent field since it is static).
func (u *Unshifted) headerBits(k, g int) int {
	h := indexBlockBits(k, u.cfg.T)
	return h + roundUp8pad(h) + 8 + 24*g
}

// Encode implements Encoder.
func (u *Unshifted) Encode(b Batch) ([]byte, error) { return u.AppendEncode(nil, b) }

// AppendEncode implements AppendEncoder.
//
//age:hotpath
func (u *Unshifted) AppendEncode(dst []byte, b Batch) ([]byte, error) {
	if err := b.Validate(u.cfg.T, u.cfg.D); err != nil {
		return nil, err
	}
	sc := u.scratch.get()
	defer u.scratch.put(sc)
	idx, vals := b.Indices, b.Values
	k := len(idx)
	groups := u.unshiftedGroups(sc.groups[:0], k)
	sc.groups = groups
	if k > 0 {
		avail := 8*u.cfg.TargetBytes - u.headerBits(k, len(groups))
		base := 0
		if avail > 0 {
			base = avail / (k * u.cfg.D)
		}
		if base < 1 {
			// No room for even one bit per value: drop the batch.
			idx, vals, groups = nil, nil, nil
		} else {
			spreadWidths(groups, min(base, u.cfg.Format.Width), avail, u.cfg.D, u.cfg.Format.Width)
		}
	}
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, idx, u.cfg.T)
	w.Align()
	writeGroupTable(&w, groups, u.cfg.Format.NonFrac)
	packGroups(&w, groups, vals)
	w.PadTo(u.cfg.TargetBytes)
	return w.Bytes(), nil
}

// Decode implements Decoder. Wrong-length payloads violate the fixed-size
// contract and are rejected.
func (u *Unshifted) Decode(payload []byte) (Batch, error) {
	var b Batch
	if err := u.DecodeInto(&b, payload); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// DecodeInto implements IntoDecoder. On error *b's contents are unspecified.
//
//age:hotpath
func (u *Unshifted) DecodeInto(b *Batch, payload []byte) error {
	if len(payload) != u.cfg.TargetBytes {
		return fmt.Errorf("core: unshifted decode: payload %dB, want exactly %dB: %w", len(payload), u.cfg.TargetBytes, ErrPayloadLength)
	}
	var r bitio.Reader
	r.Reset(payload)
	idx, err := readIndexBlockInto(&r, u.cfg.T, b.Indices[:0])
	b.Indices = idx
	b.Values = b.Values[:0]
	if err != nil {
		return err
	}
	r.Align()
	sc := u.scratch.get()
	defer u.scratch.put(sc)
	groups, err := readGroupTable(&r, sc.groups[:0], u.cfg.Format.NonFrac, len(idx))
	sc.groups = groups
	if err == nil {
		b.Values, err = unpackGroups(&r, groups, u.cfg.D, b.Values)
	}
	if err != nil {
		return fmt.Errorf("core: unshifted decode: %w", err)
	}
	return nil
}

// Pruned controls the message size with measurement pruning alone (§4.2's
// transformation as a standalone defense): it drops low-score measurements
// until the remainder fits at the full native width. Under tight targets it
// must discard most of the batch, which Table 8 shows costs ~58% extra error.
type Pruned struct {
	cfg     Config
	scratch scratchPool // for the shared prune step
}

// NewPruned returns the pruning-only variant.
func NewPruned(cfg Config) (*Pruned, error) {
	cfg, err := fixedConfig("Pruned", cfg, 0)
	if err != nil {
		return nil, err
	}
	return &Pruned{cfg: cfg}, nil
}

// PayloadBytes returns the fixed message size M_B.
func (p *Pruned) PayloadBytes() int { return p.cfg.TargetBytes }

// maxKeep returns how many measurements fit at the native width, by binary
// search over the piecewise index-block cost.
func (p *Pruned) maxKeep() int {
	fits := func(k int) bool {
		bits := indexBlockBits(k, p.cfg.T) + 7 + p.cfg.Format.Width*k*p.cfg.D
		return bits <= 8*p.cfg.TargetBytes
	}
	lo, hi := 0, p.cfg.T
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Encode implements Encoder. Layout: index block, then full-width values,
// then padding to TargetBytes.
func (p *Pruned) Encode(b Batch) ([]byte, error) { return p.AppendEncode(nil, b) }

// AppendEncode implements AppendEncoder.
//
//age:hotpath
func (p *Pruned) AppendEncode(dst []byte, b Batch) ([]byte, error) {
	if err := b.Validate(p.cfg.T, p.cfg.D); err != nil {
		return nil, err
	}
	sc := p.scratch.get()
	defer p.scratch.put(sc)
	idx, vals := sc.prune(b.Indices, b.Values, p.maxKeep())
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, idx, p.cfg.T)
	g := oneGroup(len(idx), p.cfg.Format)
	packGroups(&w, g[:], vals)
	w.PadTo(p.cfg.TargetBytes)
	return w.Bytes(), nil
}

// Decode implements Decoder. Wrong-length payloads violate the fixed-size
// contract and are rejected.
func (p *Pruned) Decode(payload []byte) (Batch, error) {
	var b Batch
	if err := p.DecodeInto(&b, payload); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// DecodeInto implements IntoDecoder. On error *b's contents are unspecified.
//
//age:hotpath
func (p *Pruned) DecodeInto(b *Batch, payload []byte) error {
	if len(payload) != p.cfg.TargetBytes {
		return fmt.Errorf("core: pruned decode: payload %dB, want exactly %dB: %w", len(payload), p.cfg.TargetBytes, ErrPayloadLength)
	}
	var r bitio.Reader
	r.Reset(payload)
	idx, err := readIndexBlockInto(&r, p.cfg.T, b.Indices[:0])
	b.Indices = idx
	if err != nil {
		return err
	}
	g := oneGroup(len(idx), p.cfg.Format)
	if b.Values, err = unpackGroups(&r, g[:], p.cfg.D, b.Values[:0]); err != nil {
		return fmt.Errorf("core: pruned decode: %w", err)
	}
	return nil
}

// pruneByDistance is the shared §4.2 pruning rule: keep the `keep`
// measurements with the largest distance scores (the last measurement is
// always kept). Hot paths call (*ageScratch).prune directly to reuse the
// working set; this wrapper allocates a fresh one per call.
func pruneByDistance(idx []int, vals [][]float64, keep int) ([]int, [][]float64) {
	var sc ageScratch
	return sc.prune(idx, vals, keep)
}
