package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bitio"
)

// This file is the MCU-side AGE encoder: the paper deploys AGE on a TI
// MSP430 FR5994 (§5.7), a device without floating-point hardware, so the C
// implementation works entirely in fixed-point integer arithmetic. EncodeRaw
// mirrors that: it consumes raw fixed-point mantissas and uses only integer
// operations (compares, adds, shifts) end to end, reusing the same grouping
// and width-assignment machinery as the float path. For inputs that are
// exactly representable in the native format, EncodeRaw and Encode produce
// byte-identical messages — the equivalence test pins that down — so the
// simulator results transfer to the MCU implementation directly.

// RawNonFracBits returns the exponent (non-fractional bits including sign)
// needed by a raw mantissa with `frac` fractional bits — the integer twin of
// fixedpoint.NonFracBitsFor. frac may be negative for coarse formats.
func RawNonFracBits(raw int32, frac int) int {
	a := int64(raw)
	if a < 0 {
		a = -a
	}
	// Smallest n >= 1 with a < 2^(n-1+frac).
	n := bits.Len64(uint64(a)) - frac + 1
	if n < 1 {
		n = 1
	}
	if n > 32 {
		n = 32
	}
	return n
}

// quantizeRaw requantizes a raw mantissa from srcFrac fractional bits to a
// (width, nonFrac) format, rounding half away from zero and clamping — the
// integer equivalent of fixedpoint.FromFloat(v.Float(), target).
func quantizeRaw(raw int32, srcFrac, width, nonFrac int) uint32 {
	dstFrac := width - nonFrac
	shift := srcFrac - dstFrac
	v := int64(raw)
	switch {
	case shift > 0:
		half := int64(1) << (shift - 1)
		if v >= 0 {
			v = (v + half) >> shift
		} else {
			v = -((-v + half) >> shift)
		}
	case shift < 0:
		v <<= -shift
	}
	hi := int64(1)<<(width-1) - 1
	lo := -(int64(1) << (width - 1))
	if v > hi {
		v = hi
	}
	if v < lo {
		v = lo
	}
	return uint32(v) & (uint32(1)<<width - 1)
}

// EncodeRaw is the integer-only AGE encoder: indices and raw fixed-point
// mantissas (in the configured native format) in, a fixed TargetBytes
// message out. The output decodes with the same Decode as the float path.
func (a *AGE) EncodeRaw(indices []int, raw [][]int32) ([]byte, error) {
	if err := validateRaw(indices, raw, a.cfg.T, a.cfg.D); err != nil {
		return nil, err
	}
	frac := a.cfg.Format.FracBits()
	idx, vals := pruneRaw(indices, raw, a.maxKeep(), frac)

	// Exponent-aware groups from raw mantissas.
	var groups []group
	for _, row := range vals {
		e := 1
		for _, v := range row {
			if n := RawNonFracBits(v, frac); n > e {
				e = n
			}
		}
		if e > a.cfg.Format.NonFrac {
			e = a.cfg.Format.NonFrac
		}
		if n := len(groups); n > 0 && groups[n-1].exponent == e && groups[n-1].count < maxRunLen {
			groups[n-1].count++
		} else {
			groups = append(groups, group{count: 1, exponent: e})
		}
	}
	if len(vals) > 0 {
		groups = mergeGroups(groups, a.groupCap(len(vals)))
	}
	groups = a.assignWidths(new(ageScratch), groups, len(idx))
	if len(groups) > maxWireGroups {
		return nil, fmt.Errorf("core: age encode: %d measurements need %d groups, wire format caps at %d",
			len(idx), len(groups), maxWireGroups)
	}

	w := bitio.NewWriter(a.cfg.TargetBytes)
	writeIndexBlock(w, idx, a.cfg.T)
	w.Align()
	writeGroupTable(w, groups, 0)
	row := 0
	for _, g := range groups {
		rw := w.StartRun(g.width)
		for i := 0; i < g.count; i++ {
			for _, v := range vals[row] {
				rw.Add(uint64(quantizeRaw(v, frac, g.width, g.exponent)))
			}
			row++
		}
		rw.Flush()
	}
	w.PadTo(a.cfg.TargetBytes)
	return w.Bytes(), nil
}

// EncodeRaw is the integer-only Standard encoder (the MCU baseline that
// writes mantissas straight into the output buffer).
func (s *Standard) EncodeRaw(indices []int, raw [][]int32) ([]byte, error) {
	if err := validateRaw(indices, raw, s.cfg.T, s.cfg.D); err != nil {
		return nil, err
	}
	w := bitio.NewWriter(StandardPayloadBytes(len(indices), s.cfg.T, s.cfg.D, s.cfg.Format.Width))
	writeIndexBlock(w, indices, s.cfg.T)
	rw := w.StartRun(s.cfg.Format.Width) // the RunWriter masks to the width
	for _, row := range raw {
		for _, v := range row {
			rw.Add(uint64(uint32(v)))
		}
	}
	rw.Flush()
	w.Align()
	return w.Bytes(), nil
}

// validateRaw mirrors Batch.Validate for raw-mantissa input.
func validateRaw(indices []int, raw [][]int32, T, d int) error {
	if len(indices) != len(raw) {
		return fmt.Errorf("core: %d indices but %d raw rows", len(indices), len(raw))
	}
	prev := -1
	for i, idx := range indices {
		if idx <= prev || idx >= T {
			return fmt.Errorf("core: raw index %d at position %d invalid", idx, i)
		}
		prev = idx
		if len(raw[i]) != d {
			return fmt.Errorf("core: raw row %d has %d features, want %d", i, len(raw[i]), d)
		}
	}
	return nil
}

// pruneRaw is the §4.2 pruning rule in integer arithmetic. The float rule
// scores Dist = |x_t - x_{t+1}|_1 + gap/8; scaling by 8*2^frac gives the
// integer score 8*|raw_t - raw_{t+1}|_1 + gap*2^frac with the identical
// ordering (ties break on position in both implementations). A negative
// frac (coarse formats) scales the gap term down instead.
func pruneRaw(indices []int, raw [][]int32, keep, frac int) ([]int, [][]int32) {
	k := len(indices)
	if k <= keep {
		return indices, raw
	}
	if keep <= 0 {
		return nil, nil
	}
	type scored struct {
		pos  int
		dist int64
	}
	scores := make([]scored, k)
	for t := 0; t < k-1; t++ {
		var l1 int64
		for f := range raw[t] {
			d := int64(raw[t][f]) - int64(raw[t+1][f])
			if d < 0 {
				d = -d
			}
			l1 += d
		}
		gap := int64(indices[t+1] - indices[t])
		// Keep both terms integral under either frac sign: scale the
		// float rule by 8*2^frac (frac >= 0) or by 8 with the L1 term
		// shifted up (frac < 0). Both preserve the exact ordering.
		var dist int64
		if frac >= 0 {
			dist = 8*l1 + gap<<frac
		} else {
			dist = 8*(l1<<(-frac)) + gap
		}
		scores[t] = scored{pos: t, dist: dist}
	}
	scores[k-1] = scored{pos: k - 1, dist: int64(1)<<62 - 1}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].dist != scores[j].dist {
			return scores[i].dist < scores[j].dist
		}
		return scores[i].pos < scores[j].pos
	})
	drop := make(map[int]bool, k-keep)
	for _, s := range scores[:k-keep] {
		drop[s.pos] = true
	}
	outIdx := make([]int, 0, keep)
	outRaw := make([][]int32, 0, keep)
	for t := 0; t < k; t++ {
		if !drop[t] {
			outIdx = append(outIdx, indices[t])
			outRaw = append(outRaw, raw[t])
		}
	}
	return outIdx, outRaw
}
