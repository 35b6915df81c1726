package core

import (
	"fmt"
	"slices"

	"repro/internal/bitio"
	"repro/internal/fixedpoint"
)

// Reference oracles for the shared value codec: each encoder's encode and
// decode bodies as they stood before the value section moved into
// packGroups and unpackGroups, one hand-written quantize+pack loop and one
// unpack+dequantize loop per format. They are copied verbatim apart from
// the per-call working set (a local value instead of the encoder's pool)
// and Unshifted's group and header helpers, which are copied alongside
// (oracleUnshiftedGroups, oracleUnshiftedHeaderBits). codec_diff_fuzz_test.go holds the
// production paths to them byte for byte and value for value, the way
// bitio's FuzzWriteKernelDiff and FuzzReadKernelDiff hold the word kernels
// to the scalar loops they replaced.

// oracleEncode runs kind's reference encoder on b with e's configuration.
func oracleEncode(kind Kind, e AppendEncoder, b Batch) ([]byte, error) {
	switch kind {
	case KindAGE:
		return oracleAGEEncode(e.(*AGE), b)
	case KindStandard:
		return oracleStandardEncode(e.(*Standard), b)
	case KindPadded:
		p := e.(*Padded)
		raw, err := oracleStandardEncode(p.std, b)
		if err != nil {
			return nil, err
		}
		n := len(raw)
		raw = slices.Grow(raw, p.max-n)[:p.max]
		clear(raw[n:])
		return raw, nil
	case KindSingle:
		return oracleSingleEncode(e.(*Single), b)
	case KindUnshifted:
		return oracleUnshiftedEncode(e.(*Unshifted), b)
	case KindPruned:
		return oraclePrunedEncode(e.(*Pruned), b)
	}
	panic("oracleEncode: unknown kind " + string(kind))
}

// oracleDecodeInto runs kind's reference decoder on payload with d's
// configuration.
func oracleDecodeInto(kind Kind, d IntoDecoder, b *Batch, payload []byte) error {
	switch kind {
	case KindAGE:
		return oracleAGEDecodeInto(d.(*AGE), b, payload)
	case KindStandard:
		return oracleStandardDecodeInto(d.(*Standard), b, payload)
	case KindPadded:
		p := d.(*Padded)
		if len(payload) != p.max {
			return fmt.Errorf("core: padded decode: payload %dB, want exactly %dB: %w", len(payload), p.max, ErrPayloadLength)
		}
		return oracleStandardDecodeInto(p.std, b, payload)
	case KindSingle:
		return oracleSingleDecodeInto(d.(*Single), b, payload)
	case KindUnshifted:
		return oracleUnshiftedDecodeInto(d.(*Unshifted), b, payload)
	case KindPruned:
		return oraclePrunedDecodeInto(d.(*Pruned), b, payload)
	}
	panic("oracleDecodeInto: unknown kind " + string(kind))
}

func oracleAGEEncode(a *AGE, b Batch) ([]byte, error) {
	sc := new(ageScratch)
	var dst []byte
	if err := b.Validate(a.cfg.T, a.cfg.D); err != nil {
		return nil, err
	}
	idx, vals := sc.prune(b.Indices, b.Values, a.maxKeep())
	groups := a.formGroups(sc, vals)
	groups = a.assignWidths(sc, groups, len(idx))
	if len(groups) > maxWireGroups {
		return nil, fmt.Errorf("core: age encode: %d measurements need %d groups, wire format caps at %d",
			len(idx), len(groups), maxWireGroups)
	}
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, idx, a.cfg.T)
	w.Align()
	w.WriteBits(uint32(len(groups)), 8)
	for _, g := range groups {
		w.WriteBits(uint32(g.count), 16)
		w.WriteBits(uint32(g.exponent), 8)
		w.WriteBits(uint32(g.width), 8)
	}
	row := 0
	for _, g := range groups {
		// Fused quantize+pack: one precomputed Quantizer per group and a
		// RunWriter accumulating whole 64-bit words, instead of a math.Pow
		// and a bit-by-bit write per value.
		q := fixedpoint.NewQuantizer(fixedpoint.Format{Width: g.width, NonFrac: g.exponent})
		rw := w.StartRun(g.width)
		for i := 0; i < g.count; i++ {
			for _, v := range vals[row] {
				rw.Add(uint64(q.Bits(v)))
			}
			row++
		}
		rw.Flush()
	}
	w.PadTo(a.cfg.TargetBytes)
	return w.Bytes(), nil
}

func oracleAGEDecodeInto(a *AGE, b *Batch, payload []byte) error {
	if len(payload) != a.cfg.TargetBytes {
		return fmt.Errorf("core: age decode: payload %dB, want exactly %dB: %w", len(payload), a.cfg.TargetBytes, ErrPayloadLength)
	}
	var r bitio.Reader
	r.Reset(payload)
	idx, err := readIndexBlockInto(&r, a.cfg.T, b.Indices[:0])
	b.Indices = idx
	if err != nil {
		return err
	}
	r.Align()
	gc, err := r.ReadBits(8)
	if err != nil {
		return fmt.Errorf("core: age decode group count: %w", err)
	}
	var sc struct {
		groups []group
		u64    []uint64
	}
	groups := slices.Grow(sc.groups[:0], int(gc))[:gc]
	sc.groups = groups
	total := 0
	for i := range groups {
		c, err1 := r.ReadBits(16)
		e, err2 := r.ReadBits(8)
		wd, err3 := r.ReadBits(8)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("core: age decode group %d header", i)
		}
		groups[i] = group{count: int(c), exponent: int(e), width: int(wd)}
		total += int(c)
	}
	if total != len(idx) {
		return fmt.Errorf("core: age decode: groups cover %d measurements, indices say %d", total, len(idx))
	}
	vals := b.Values[:0]
	for gi, g := range groups {
		// A corrupt payload can carry any width or exponent byte; both must
		// land in fixedpoint's representable range or the constructed
		// Format would be invalid (§4.4 assigns 1..Format.Width and
		// 1..NonFrac only).
		if g.width < 1 || g.width > fixedpoint.MaxWidth ||
			g.exponent < 1 || g.exponent > fixedpoint.MaxWidth {
			b.Values = vals
			return fmt.Errorf("core: age decode: group %d has invalid format (w=%d n=%d)", gi, g.width, g.exponent)
		}
		// Fused unpack+dequantize: pull the whole group's mantissas out in
		// one ReadRun pass, then expand with a precomputed Dequantizer.
		n := g.count * a.cfg.D
		buf := slices.Grow(sc.u64[:0], n)[:n]
		sc.u64 = buf
		if err := r.ReadRun(buf, g.width); err != nil {
			b.Values = vals
			return fmt.Errorf("core: age decode values: %w", err)
		}
		dq := fixedpoint.NewDequantizer(fixedpoint.Format{Width: g.width, NonFrac: g.exponent})
		pos := 0
		for i := 0; i < g.count; i++ {
			vals = appendRow(vals, a.cfg.D)
			row := vals[len(vals)-1]
			for fi := range row {
				row[fi] = dq.Float(uint32(buf[pos]))
				pos++
			}
		}
	}
	b.Values = vals
	return nil
}

func oracleStandardEncode(s *Standard, b Batch) ([]byte, error) {
	q := fixedpoint.NewQuantizer(s.cfg.Format)
	var dst []byte
	if err := b.Validate(s.cfg.T, s.cfg.D); err != nil {
		return nil, err
	}
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, b.Indices, s.cfg.T)
	rw := w.StartRun(s.cfg.Format.Width)
	for _, row := range b.Values {
		for _, v := range row {
			rw.Add(uint64(q.Bits(v)))
		}
	}
	rw.Flush()
	w.Align()
	return w.Bytes(), nil
}

func oracleStandardDecodeInto(s *Standard, b *Batch, payload []byte) error {
	var r bitio.Reader
	r.Reset(payload)
	idx, err := readIndexBlockInto(&r, s.cfg.T, b.Indices[:0])
	b.Indices = idx
	if err != nil {
		return err
	}
	vals := b.Values[:0]
	dq := fixedpoint.NewDequantizer(s.cfg.Format)
	var tmp [64]uint64
	for range idx {
		vals = appendRow(vals, s.cfg.D)
		row := vals[len(vals)-1]
		for off := 0; off < len(row); off += len(tmp) {
			n := min(len(row)-off, len(tmp))
			if err := r.ReadRun(tmp[:n], s.cfg.Format.Width); err != nil {
				b.Values = vals
				return fmt.Errorf("core: standard decode: %w", err)
			}
			for i := 0; i < n; i++ {
				row[off+i] = dq.Float(uint32(tmp[i]))
			}
		}
	}
	b.Values = vals
	return nil
}

func oracleSingleEncode(s *Single, b Batch) ([]byte, error) {
	var dst []byte
	if err := b.Validate(s.cfg.T, s.cfg.D); err != nil {
		return nil, err
	}
	idx, vals := b.Indices, b.Values
	// Width from the whole-message budget; drop everything if no width >= 1
	// exists (standard fixed-point quantization has no pruning fallback).
	k := len(idx)
	width := 0
	if k > 0 {
		width = (8*s.cfg.TargetBytes - singleHeaderBits(k, s.cfg.T)) / (k * s.cfg.D)
	}
	if width < 1 {
		idx, vals = nil, nil
		width = 0
	}
	if width > s.cfg.Format.Width {
		width = s.cfg.Format.Width
	}
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, idx, s.cfg.T)
	w.Align()
	w.WriteBits(uint32(width), 8)
	if width > 0 {
		q := fixedpoint.NewQuantizer(fixedpoint.Format{Width: width, NonFrac: s.cfg.Format.NonFrac})
		rw := w.StartRun(width)
		for _, row := range vals {
			for _, v := range row {
				rw.Add(uint64(q.Bits(v)))
			}
		}
		rw.Flush()
	}
	w.PadTo(s.cfg.TargetBytes)
	return w.Bytes(), nil
}

func oracleSingleDecodeInto(s *Single, b *Batch, payload []byte) error {
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
	width := int(wd)
	if width == 0 {
		if len(idx) != 0 {
			return fmt.Errorf("core: single decode: zero width with %d indices", len(idx))
		}
		b.Indices = nil
		return nil
	}
	if width > fixedpoint.MaxWidth {
		return fmt.Errorf("core: single decode: width %d out of range", width)
	}
	dq := fixedpoint.NewDequantizer(fixedpoint.Format{Width: width, NonFrac: s.cfg.Format.NonFrac})
	vals := b.Values
	for range idx {
		vals = appendRow(vals, s.cfg.D)
		row := vals[len(vals)-1]
		for fi := range row {
			bitsv, err := r.ReadBits(width)
			if err != nil {
				b.Values = vals
				return fmt.Errorf("core: single decode values: %w", err)
			}
			row[fi] = dq.Float(bitsv)
		}
	}
	b.Values = vals
	return nil
}

// oracleUnshiftedGroups splits k measurements into at most MinGroups even groups.
func oracleUnshiftedGroups(u *Unshifted, k int) []group {
	if k == 0 {
		return nil
	}
	n := u.cfg.MinGroups
	if n > k {
		n = k
	}
	base, rem := k/n, k%n
	groups := make([]group, n)
	for i := range groups {
		c := base
		if i < rem {
			c++
		}
		groups[i] = group{count: c, exponent: u.cfg.Format.NonFrac}
	}
	return groups
}

// oracleUnshiftedHeaderBits: 2B count + indices + 1B group count + 3B per group
// (2B run length + 1B width; no exponent field since it is static).
func oracleUnshiftedHeaderBits(u *Unshifted, k, g int) int {
	h := indexBlockBits(k, u.cfg.T)
	return h + roundUp8pad(h) + 8 + 24*g
}

func oracleUnshiftedEncode(u *Unshifted, b Batch) ([]byte, error) {
	var dst []byte
	if err := b.Validate(u.cfg.T, u.cfg.D); err != nil {
		return nil, err
	}
	idx, vals := b.Indices, b.Values
	k := len(idx)
	groups := oracleUnshiftedGroups(u, k)
	if k > 0 {
		avail := 8*u.cfg.TargetBytes - oracleUnshiftedHeaderBits(u, k, len(groups))
		base := 0
		if avail > 0 {
			base = avail / (k * u.cfg.D)
		}
		if base < 1 {
			// No room for even one bit per value: drop the batch.
			idx, vals, groups = nil, nil, nil
		} else {
			if base > u.cfg.Format.Width {
				base = u.cfg.Format.Width
			}
			spare := avail
			for i := range groups {
				groups[i].width = base
				spare -= base * groups[i].count * u.cfg.D
			}
			for changed := true; changed && spare > 0; {
				changed = false
				for i := range groups {
					need := groups[i].count * u.cfg.D
					if groups[i].width < u.cfg.Format.Width && spare >= need {
						groups[i].width++
						spare -= need
						changed = true
					}
				}
			}
		}
	}
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, idx, u.cfg.T)
	w.Align()
	w.WriteBits(uint32(len(groups)), 8)
	for _, g := range groups {
		w.WriteBits(uint32(g.count), 16)
		w.WriteBits(uint32(g.width), 8)
	}
	row := 0
	for _, g := range groups {
		q := fixedpoint.NewQuantizer(fixedpoint.Format{Width: g.width, NonFrac: u.cfg.Format.NonFrac})
		rw := w.StartRun(g.width)
		for i := 0; i < g.count; i++ {
			for _, v := range vals[row] {
				rw.Add(uint64(q.Bits(v)))
			}
			row++
		}
		rw.Flush()
	}
	w.PadTo(u.cfg.TargetBytes)
	return w.Bytes(), nil
}

func oracleUnshiftedDecodeInto(u *Unshifted, b *Batch, payload []byte) error {
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
	gc, err := r.ReadBits(8)
	if err != nil {
		return fmt.Errorf("core: unshifted decode group count: %w", err)
	}
	groups := make([]group, gc)
	total := 0
	for i := range groups {
		c, err1 := r.ReadBits(16)
		wd, err2 := r.ReadBits(8)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("core: unshifted decode group %d", i)
		}
		groups[i] = group{count: int(c), width: int(wd)}
		total += int(c)
	}
	if total != len(idx) {
		return fmt.Errorf("core: unshifted decode: groups cover %d, indices say %d", total, len(idx))
	}
	vals := b.Values
	for _, g := range groups {
		if g.width < 1 || g.width > fixedpoint.MaxWidth {
			b.Values = vals
			return fmt.Errorf("core: unshifted decode: bad width %d", g.width)
		}
		dq := fixedpoint.NewDequantizer(fixedpoint.Format{Width: g.width, NonFrac: u.cfg.Format.NonFrac})
		for i := 0; i < g.count; i++ {
			vals = appendRow(vals, u.cfg.D)
			row := vals[len(vals)-1]
			for fi := range row {
				bitsv, err := r.ReadBits(g.width)
				if err != nil {
					b.Values = vals
					return fmt.Errorf("core: unshifted decode values: %w", err)
				}
				row[fi] = dq.Float(bitsv)
			}
		}
	}
	b.Values = vals
	return nil
}

func oraclePrunedEncode(p *Pruned, b Batch) ([]byte, error) {
	var dst []byte
	if err := b.Validate(p.cfg.T, p.cfg.D); err != nil {
		return nil, err
	}
	sc := new(ageScratch)
	idx, vals := sc.prune(b.Indices, b.Values, p.maxKeep())
	var w bitio.Writer
	w.ResetTo(dst)
	writeIndexBlock(&w, idx, p.cfg.T)
	q := fixedpoint.NewQuantizer(p.cfg.Format)
	rw := w.StartRun(p.cfg.Format.Width)
	for _, row := range vals {
		for _, v := range row {
			rw.Add(uint64(q.Bits(v)))
		}
	}
	rw.Flush()
	w.PadTo(p.cfg.TargetBytes)
	return w.Bytes(), nil
}

func oraclePrunedDecodeInto(p *Pruned, b *Batch, payload []byte) error {
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
	vals := b.Values[:0]
	dq := fixedpoint.NewDequantizer(p.cfg.Format)
	for range idx {
		vals = appendRow(vals, p.cfg.D)
		row := vals[len(vals)-1]
		for fi := range row {
			bitsv, err := r.ReadBits(p.cfg.Format.Width)
			if err != nil {
				b.Values = vals
				return fmt.Errorf("core: pruned decode values: %w", err)
			}
			row[fi] = dq.Float(bitsv)
		}
	}
	b.Values = vals
	return nil
}
