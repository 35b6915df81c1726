package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bitio"
	"repro/internal/fixedpoint"
)

// AGE implements Adaptive Group Encoding (§4): a lossy encoder that packs any
// batch into exactly TargetBytes. The pipeline is
//
//	prune (§4.2) -> exponent-aware groups (§4.3) -> per-group quantization (§4.4)
//
// Wire layout (byte-aligned blocks; see DESIGN.md §5):
//
//	index block: [1B flag] then either [2B collected count k']
//	  [k' x ceil(log2 T) bits of indices] or a [T-bit presence mask],
//	  whichever is smaller
//	[1B group count G']
//	G' x ([2B run length] [1B exponent n_i] [1B width w_i])
//	packed values: group by group, Count(g_i)*d values at w_i bits
//	zero padding to TargetBytes
type AGE struct {
	cfg     Config
	scratch scratchPool
}

// NewAGE returns an AGE encoder/decoder producing cfg.TargetBytes messages.
func NewAGE(cfg Config) (*AGE, error) {
	cfg, err := fixedConfig("AGE", cfg, 1)
	if err != nil {
		return nil, err
	}
	if cfg.MinWidth < 1 || cfg.MinWidth > cfg.Format.Width {
		return nil, fmt.Errorf("core: MinWidth %d out of range [1, %d]", cfg.MinWidth, cfg.Format.Width)
	}
	return &AGE{cfg: cfg}, nil
}

// maxRunLen is the largest measurement count one group header can carry in
// its 16-bit run-length field. rleGroups caps runs here, and mergeGroups
// refuses merges that would exceed it, so no group ever silently truncates
// on the wire.
const maxRunLen = 65535

// maxWireGroups is the largest group count the 1-byte header field can
// carry. Batches that cannot merge below it (only possible past ~16M
// measurements, where every group is pinned at maxRunLen) are rejected.
const maxWireGroups = 255

// PayloadBytes returns the fixed message size M_B.
func (a *AGE) PayloadBytes() int { return a.cfg.TargetBytes }

// boundary scores the gap between adjacent groups for merging.
type boundary struct{ pos, score int }

// ageScratch is the reusable working set of one Encode or Decode call.
type ageScratch struct {
	idx      []int
	vals     [][]float64
	scores   []pruneScore
	keep     []bool
	groups   []group
	bounds   []boundary
	dissolve []bool
}

// Encode implements Encoder. The result is always exactly TargetBytes long.
func (a *AGE) Encode(b Batch) ([]byte, error) { return a.AppendEncode(nil, b) }

// AppendEncode implements AppendEncoder: it writes the payload into dst's
// storage, allocating only when dst cannot hold TargetBytes.
//
//age:hotpath
func (a *AGE) AppendEncode(dst []byte, b Batch) ([]byte, error) {
	if err := b.Validate(a.cfg.T, a.cfg.D); err != nil {
		return nil, err
	}
	sc := a.scratch.get()
	defer a.scratch.put(sc)
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
	writeGroupTable(&w, groups, 0)
	packGroups(&w, groups, vals)
	w.PadTo(a.cfg.TargetBytes)
	return w.Bytes(), nil
}

// Decode implements Decoder. AGE's contract is that every message is exactly
// TargetBytes on the wire, so a truncated or padded payload is corruption by
// definition and is rejected before any field is parsed.
func (a *AGE) Decode(payload []byte) (Batch, error) {
	var b Batch
	if err := a.DecodeInto(&b, payload); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// DecodeInto implements IntoDecoder: it overwrites *b, reusing its index and
// value storage when capacities allow. On error *b's contents are
// unspecified.
//
//age:hotpath
func (a *AGE) DecodeInto(b *Batch, payload []byte) error {
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
	sc := a.scratch.get()
	defer a.scratch.put(sc)
	groups, err := readGroupTable(&r, sc.groups[:0], 0, len(idx))
	sc.groups = groups
	if err == nil {
		b.Values, err = unpackGroups(&r, groups, a.cfg.D, b.Values[:0])
	}
	if err != nil {
		return fmt.Errorf("core: age decode: %w", err)
	}
	return nil
}

// prune is the scratch-free pruning stage (§4.2), kept for tests and callers
// outside the hot path.
func (a *AGE) prune(idx []int, vals [][]float64) ([]int, [][]float64) {
	return pruneByDistance(idx, vals, a.maxKeep())
}

// maxKeep returns the largest number of measurements whose index block and
// values (at MinWidth bits, minimal groups) fit in TargetBytes (§4.2). The
// index block cost is piecewise in k (explicit list vs bitmask), so the
// bound is found by binary search on the monotone fit predicate.
func (a *AGE) maxKeep() int {
	fits := func(k int) bool {
		// Index block + alignment slack + group count + group headers +
		// values at the minimum width. The 16-bit run-length field caps a
		// group at maxRunLen measurements, so a batch beyond that carries
		// ceil(k/maxRunLen) headers even after maximal merging.
		g := 1
		if k > maxRunLen {
			g = (k + maxRunLen - 1) / maxRunLen
		}
		bits := indexBlockBits(k, a.cfg.T) + 7 + 8 + 32*g + a.cfg.MinWidth*k*a.cfg.D
		return bits <= 8*a.cfg.TargetBytes
	}
	lo, hi := 0, a.cfg.T
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

// pruneScore pairs a measurement position with its §4.2 distance score.
type pruneScore struct {
	pos  int
	dist float64
}

// prune implements measurement pruning (§4.2) on the scratch: when the batch
// cannot give every value at least MinWidth bits, drop the measurements with
// the smallest distance scores
//
//	Dist(x_t) = |x_t - x_{t+1}|_1 + |alpha_t - alpha_{t+1}| / 8.
//
// Scores are computed once (the paper rejects incremental rescoring as not
// worth the MCU overhead). The final measurement has no successor and is
// never pruned, anchoring the sequence end. When nothing needs dropping the
// inputs are returned unchanged; otherwise survivors are gathered into the
// scratch slices.
func (sc *ageScratch) prune(idx []int, vals [][]float64, keep int) ([]int, [][]float64) {
	k := len(idx)
	if k <= keep {
		return idx, vals
	}
	if keep <= 0 {
		return nil, nil
	}
	scorePrune(sc, idx, vals, keep)
	outIdx := sc.idx[:0]
	outVals := sc.vals[:0]
	for t := 0; t < k; t++ {
		if sc.keep[t] {
			outIdx = append(outIdx, idx[t])
			outVals = append(outVals, vals[t])
		}
	}
	sc.idx, sc.vals = outIdx, outVals
	return outIdx, outVals
}

// scorePrune fills sc.keep with the §4.2 survivor set: the keep measurements
// with the largest distance scores, ties broken toward earlier positions so
// the float and integer (MCU) encoders prune identically.
func scorePrune(sc *ageScratch, idx []int, vals [][]float64, keep int) {
	k := len(idx)
	scores := slices.Grow(sc.scores[:0], k)
	for t := 0; t < k-1; t++ {
		var l1 float64
		for f := range vals[t] {
			l1 += math.Abs(vals[t][f] - vals[t+1][f])
		}
		scores = append(scores, pruneScore{pos: t, dist: l1 + float64(idx[t+1]-idx[t])/8})
	}
	// The last measurement has no successor and always survives.
	scores = append(scores, pruneScore{pos: k - 1, dist: math.Inf(1)})
	sc.scores = scores
	slices.SortFunc(scores, func(a, b pruneScore) int {
		switch {
		case a.dist < b.dist:
			return -1
		case a.dist > b.dist:
			return 1
		default:
			return a.pos - b.pos
		}
	})
	keepMask := slices.Grow(sc.keep[:0], k)[:k]
	sc.keep = keepMask
	for i := range keepMask {
		keepMask[i] = true
	}
	for _, s := range scores[:k-keep] {
		keepMask[s.pos] = false
	}
}

// formGroups implements exponent-aware group formation (§4.3): compute each
// measurement's exponent (the non-fractional bits its largest feature
// needs), run-length encode the exponent sequence, and merge adjacent groups
// until at most G remain, where G is the largest group count whose metadata
// fits beside full-width values — but never below MinGroups (G_0).
func (a *AGE) formGroups(sc *ageScratch, vals [][]float64) []group {
	if len(vals) == 0 {
		return nil
	}
	groups := rleGroupsInto(sc.groups[:0], vals, a.cfg.Format.NonFrac)
	sc.groups = groups
	g := a.groupCap(len(vals))
	return mergeGroupsInto(groups[:0], groups, g, sc)
}

// rleGroups produces maximal runs of measurements sharing an exponent. Runs
// are capped at maxRunLen measurements so the count fits its 2-byte field
// (unreachable for the paper's T <= 1250, but load-bearing for large T).
func rleGroups(vals [][]float64, maxExp int) []group {
	return rleGroupsInto(nil, vals, maxExp)
}

// rleGroupsInto is rleGroups appending into dst.
func rleGroupsInto(dst []group, vals [][]float64, maxExp int) []group {
	out := dst
	for _, row := range vals {
		e := 1
		for _, v := range row {
			if n := fixedpoint.NonFracBitsFor(v); n > e {
				e = n
			}
		}
		if e > maxExp {
			e = maxExp // defensive: data beyond the native format clamps anyway
		}
		if n := len(out); n > 0 && out[n-1].exponent == e && out[n-1].count < maxRunLen {
			out[n-1].count++
		} else {
			out = append(out, group{count: 1, exponent: e})
		}
	}
	return out
}

// groupCap returns G for a batch of k measurements: the greatest number of
// 3-byte group headers that fit in the space left after encoding every value
// at the full native width, floored at MinGroups (§4.3).
func (a *AGE) groupCap(k int) int {
	m := (k*a.cfg.D*a.cfg.Format.Width + 7) / 8   // bytes at full width
	fixed := (indexBlockBits(k, a.cfg.T)+7)/8 + 1 // index block + group count
	free := a.cfg.TargetBytes - m - fixed
	g := 0
	if free > 0 {
		g = free / 4 // 4-byte group headers
	}
	if g < a.cfg.MinGroups {
		g = a.cfg.MinGroups
	}
	if g > maxWireGroups {
		g = maxWireGroups
	}
	return g
}

// mergeGroups merges adjacent groups with the lowest initial scores
//
//	Score(g1, g2) = Count(g1) + Count(g2) + 2*|n1 - n2|
//
// until at most g groups remain. The merged group keeps max(n1, n2) so large
// values never lose their integer bits. Scores are computed once from the
// initial grouping, matching the paper's cheap MCU-friendly variant: the
// len-1 adjacent-pair scores are ranked a single time and the cheapest
// boundaries are dissolved in one pass, with no rescoring after merges (ties
// dissolve the leftmost boundary first, keeping the float and integer
// encoders byte-identical). A boundary whose merge would push the combined
// run past maxRunLen is never dissolved — the 16-bit run-length field cannot
// carry it — so the result can exceed g when a batch is large enough to pin
// groups at the cap.
func mergeGroups(groups []group, g int) []group {
	return mergeGroupsInto(make([]group, 0, len(groups)), groups, g, nil)
}

// mergeGroupsInto is mergeGroups appending into dst. dst may alias
// groups[:0]: output position j is only written after input position j has
// been consumed, so in-place compaction is safe. sc, when non-nil, provides
// reusable boundary scratch.
func mergeGroupsInto(dst, groups []group, g int, sc *ageScratch) []group {
	if g < 1 {
		g = 1
	}
	n := len(groups)
	if n <= g {
		return append(dst, groups...)
	}
	var bs []boundary
	var dissolve []bool
	if sc != nil {
		bs = sc.bounds[:0]
		dissolve = slices.Grow(sc.dissolve[:0], n-1)[:n-1]
	} else {
		bs = make([]boundary, 0, n-1)
		dissolve = make([]bool, n-1)
	}
	for i := range dissolve {
		dissolve[i] = false
	}
	for i := 0; i+1 < n; i++ {
		if groups[i].count+groups[i+1].count > maxRunLen {
			continue // merging would overflow the 16-bit run length
		}
		bs = append(bs, boundary{
			pos:   i,
			score: groups[i].count + groups[i+1].count + 2*absInt(groups[i].exponent-groups[i+1].exponent),
		})
	}
	if sc != nil {
		sc.bounds, sc.dissolve = bs, dissolve
	}
	slices.SortFunc(bs, func(a, b boundary) int {
		if a.score != b.score {
			return a.score - b.score
		}
		return a.pos - b.pos
	})
	want := n - g
	if want > len(bs) {
		want = len(bs)
	}
	for _, b := range bs[:want] {
		dissolve[b.pos] = true
	}
	out := dst
	cur := groups[0]
	for i := 1; i < n; i++ {
		// Re-check the cap against the accumulated run: two individually
		// eligible boundaries can chain into an oversized merge.
		if dissolve[i-1] && cur.count+groups[i].count <= maxRunLen {
			cur.count += groups[i].count
			cur.exponent = max(cur.exponent, groups[i].exponent)
		} else {
			out = append(out, cur)
			cur = groups[i]
		}
	}
	return append(out, cur)
}

// assignWidths implements data quantization (§4.4): choose per-group bit
// widths so the payload is at most TargetBytes while wasting as little space
// as possible: every group starts at the uniform floor width, and
// spreadWidths hands out the spare bits.
func (a *AGE) assignWidths(sc *ageScratch, groups []group, k int) []group {
	if len(groups) == 0 {
		return groups
	}
	header := func(g int) int {
		ib := indexBlockBits(k, a.cfg.T)
		return ib + roundUp8pad(ib) + 8 + 32*g
	}
	avail := 8*a.cfg.TargetBytes - header(len(groups))
	totalVals := k * a.cfg.D
	// If the header alone starves the data below MinWidth per value, give
	// back header space by merging further (down to the fewest groups the
	// run-length cap permits; the pruning guarantee makes MinWidth feasible
	// there).
	for len(groups) > 1 && avail/totalVals < a.cfg.MinWidth {
		merged := mergeGroupsInto(groups[:0], groups, len(groups)-1, sc)
		if len(merged) == len(groups) {
			break // every remaining boundary is pinned by the run-length cap
		}
		groups = merged
		avail = 8*a.cfg.TargetBytes - header(len(groups))
	}
	spreadWidths(groups, max(1, min(avail/totalVals, a.cfg.Format.Width)), avail, a.cfg.D, a.cfg.Format.Width)
	return groups
}

// roundUp8pad returns the bits needed to pad bitCount up to a byte boundary.
func roundUp8pad(bitCount int) int {
	r := bitCount % 8
	if r == 0 {
		return 0
	}
	return 8 - r
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
