package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/fixedpoint"
)

// Every encoder in this package but Buffered writes the same
// value section after its own header: the batch's rows split into groups,
// each group's values quantized to one (width, exponent) format and packed
// at that width. AGE's groups come from §4.3, Unshifted's are even splits
// at the native exponent, and Single, Pruned and Standard write one group.
// packGroups and unpackGroups are that section's only writer and reader.

// group is a run of consecutive measurements sharing an exponent, plus the
// bit width assigned during quantization.
type group struct {
	count    int // measurements in the group
	exponent int // non-fractional bits n_i
	width    int // assigned bits per value w_i
}

// oneGroup is the group table of the formats that store all k measurements
// in one format: Standard and Pruned at the native format, Single at its
// batch-wide width.
func oneGroup(k int, f fixedpoint.Format) [1]group {
	return [1]group{{count: k, exponent: f.NonFrac, width: f.Width}}
}

// packGroups writes the value section: group by group, the group's rows of
// vals quantized to the group's format. One precomputed Quantizer per group
// and a RunWriter accumulating whole 64-bit words replace a math.Pow and a
// bit-by-bit write per value.
//
//age:hotpath
func packGroups(w *bitio.Writer, groups []group, vals [][]float64) {
	row := 0
	for _, g := range groups {
		q := fixedpoint.NewQuantizer(fixedpoint.Format{Width: g.width, NonFrac: g.exponent})
		rw := w.StartRun(g.width)
		for _, r := range vals[row : row+g.count] {
			for _, v := range r {
				rw.Add(uint64(q.Bits(v)))
			}
		}
		rw.Flush()
		row += g.count
	}
}

// unpackGroups reads the value section packGroups wrote, appending one
// d-feature row to vals per measurement. A corrupt payload can carry any
// width or exponent, so both must land in fixedpoint's representable range
// before a Dequantizer is built from them. Mantissas come out through
// ReadRun into a stack buffer, as many whole rows at a time as it holds, so
// each row fills with no per-value branch and the section reads without
// allocating whatever its size; a row wider than the buffer reads in
// buffer-sized pieces. On error the rows read so far are returned with it,
// so callers keep the storage.
//
//age:hotpath
func unpackGroups(r *bitio.Reader, groups []group, d int, vals [][]float64) ([][]float64, error) {
	var buf [64]uint64
	per := max(len(buf)/d, 1) // whole rows per ReadRun
	for gi, g := range groups {
		if g.width < 1 || g.width > fixedpoint.MaxWidth ||
			g.exponent < 1 || g.exponent > fixedpoint.MaxWidth {
			return vals, fmt.Errorf("group %d has invalid format (w=%d n=%d)", gi, g.width, g.exponent)
		}
		dq := fixedpoint.NewDequantizer(fixedpoint.Format{Width: g.width, NonFrac: g.exponent})
		for left := g.count; left > 0; {
			n := min(left, per)
			left -= n
			if d > len(buf) {
				vals = appendRow(vals, d)
				row := vals[len(vals)-1]
				for off := 0; off < d; off += len(buf) {
					part := buf[:min(d-off, len(buf))]
					if err := r.ReadRun(part, g.width); err != nil {
						return vals, fmt.Errorf("group %d values: %w", gi, err)
					}
					dequantize(row[off:], part, dq)
				}
				continue
			}
			chunk := buf[:n*d]
			if err := r.ReadRun(chunk, g.width); err != nil {
				return vals, fmt.Errorf("group %d values: %w", gi, err)
			}
			for i := 0; i < n; i++ {
				vals = appendRow(vals, d)
				dequantize(vals[len(vals)-1], chunk[i*d:(i+1)*d], dq)
			}
		}
	}
	return vals, nil
}

// dequantize fills the first len(src) values of dst from src's mantissas.
//
//age:hotpath
func dequantize(dst []float64, src []uint64, dq fixedpoint.Dequantizer) {
	dst = dst[:len(src)]
	for i, m := range src {
		dst[i] = dq.Float(uint32(m))
	}
}

// writeGroupTable writes the group header AGE and Unshifted share: a 1-byte
// group count, then per group a 16-bit run length, the 8-bit exponent and
// the 8-bit width. A positive staticExp leaves the exponent off the wire:
// Unshifted passes its static native exponent, AGE passes 0.
func writeGroupTable(w *bitio.Writer, groups []group, staticExp int) {
	w.WriteBits(uint32(len(groups)), 8)
	for _, g := range groups {
		w.WriteBits(uint32(g.count), 16)
		if staticExp <= 0 {
			w.WriteBits(uint32(g.exponent), 8)
		}
		w.WriteBits(uint32(g.width), 8)
	}
}

// readGroupTable reads writeGroupTable's header into dst's storage, with
// the same staticExp: when it is positive the exponent is not on the wire
// and every group takes staticExp. The groups must cover exactly k
// measurements, the index block's count.
func readGroupTable(r *bitio.Reader, dst []group, staticExp, k int) ([]group, error) {
	gc, err := r.ReadBits(8)
	if err != nil {
		return dst, fmt.Errorf("group count: %w", err)
	}
	dst = slices.Grow(dst, int(gc))
	total := 0
	for i := 0; i < int(gc); i++ {
		c, err := r.ReadBits(16)
		e := uint32(staticExp)
		if err == nil && staticExp <= 0 {
			e, err = r.ReadBits(8)
		}
		var wd uint32
		if err == nil {
			wd, err = r.ReadBits(8)
		}
		if err != nil {
			return dst, fmt.Errorf("group %d header: %w", i, err)
		}
		dst = append(dst, group{count: int(c), exponent: int(e), width: int(wd)})
		total += int(c)
	}
	if total != k {
		return dst, fmt.Errorf("groups cover %d measurements, indices say %d", total, k)
	}
	return dst, nil
}

// spreadWidths is the width assignment AGE and Unshifted share (§4.4):
// every group starts at base bits, then round-robin passes grant one more
// bit, in group order, to each group below maxWidth whose d values per
// measurement the remaining budget of avail bits still covers. The extra
// bits functionally mimic fractional widths.
func spreadWidths(groups []group, base, avail, d, maxWidth int) {
	spare := avail
	for i := range groups {
		groups[i].width = base
		spare -= base * groups[i].count * d
	}
	for changed := true; changed && spare > 0; {
		changed = false
		for i := range groups {
			need := groups[i].count * d
			if groups[i].width < maxWidth && spare >= need {
				groups[i].width++
				spare -= need
				changed = true
			}
		}
	}
}

// fixedConfig applies cfg's defaults and validates it for the fixed-size
// encoder name. The smallest usable target is the empty-batch message: the
// index block for T (3 bytes for T >= 9, 2 below, flag byte included),
// rounded up to whole bytes, plus the format's header bytes after it (the
// group count or width byte; none for Pruned). With less, even an empty
// batch cannot be padded to the target.
func fixedConfig(name string, cfg Config, header int) (Config, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	if least := (indexBlockBits(0, cfg.T)+7)/8 + header; cfg.TargetBytes < least {
		return Config{}, fmt.Errorf("core: %s target %dB below the %dB empty-batch message for T = %d: %w",
			name, cfg.TargetBytes, least, cfg.T, ErrTargetTooSmall)
	}
	return cfg, nil
}

// scratchPool pools the per-call working set (prune survivors, groups,
// merge boundaries) of the encoders that need one, so steady-state encodes
// and decodes stop allocating. A pool rather than a single scratch keeps an
// encoder safe for concurrent use across sweep workers.
type scratchPool struct{ pool sync.Pool }

func (p *scratchPool) get() *ageScratch {
	if sc, ok := p.pool.Get().(*ageScratch); ok {
		return sc
	}
	return new(ageScratch)
}

// put returns sc to the pool, dropping references to caller data so pooled
// scratches never pin batch rows against the GC.
func (p *scratchPool) put(sc *ageScratch) {
	vals := sc.vals[:cap(sc.vals)]
	clear(vals)
	sc.vals = vals[:0]
	p.pool.Put(sc)
}
