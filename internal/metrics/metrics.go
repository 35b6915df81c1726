// Package metrics is the repo's instrumentation library: atomic counters,
// gauges, fixed-bucket histograms, and labeled per-sensor series, collected
// into a Registry with a snapshot API and an expvar-style JSON dump.
//
// The package exists because message counts and sizes are this paper's whole
// threat model (§3.1): an operator of the fleet server should be able to see
// from a live run exactly what an eavesdropper sees — frames, wire bytes,
// retry churn — without waiting for the post-hoc experiment tables.
//
// Design constraints, in order:
//
//  1. Hot-path updates are allocation-free and lock-free: Counter.Add,
//     Gauge.Set, and Histogram.Observe are single atomic operations (Observe
//     adds a bounded bucket scan). The encoder hot loops are verified
//     zero-alloc by core's AllocsPerRun tests with instrumentation attached.
//  2. Observation only: nothing in this package feeds back into simulation
//     RNG, cell ordering, or transport behavior, so enabling metrics cannot
//     perturb the deterministic-sweep contract (DESIGN.md).
//  3. Get-or-create registration: Registry.Counter(name) et al. return the
//     existing instrument on repeated calls, so the fleet's n sensors share
//     one family of series without coordination.
//
// Callers cache instrument pointers outside their loops; name lookup takes
// the registry lock and is not for hot paths.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. busy workers, live
// connections). Unlike Counter it can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of int64 observations (typically
// nanoseconds or bytes). Buckets are cumulative-upper-bound style: counts[i]
// tallies observations <= bounds[i], with one overflow bucket past the last
// bound. Observations also accumulate into sum/count/max so snapshots can
// report a mean without bucket math.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	count  atomic.Int64
	max    atomic.Int64
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. An empty bound list still tracks count/sum/max.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Allocation-free; safe for concurrent use.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// LatencyBuckets returns the default nanosecond bounds for encode/decode and
// frame-service latency: 1µs to 1s, roughly logarithmic.
func LatencyBuckets() []int64 {
	return []int64{
		1_000, 2_000, 5_000,
		10_000, 20_000, 50_000,
		100_000, 200_000, 500_000,
		1_000_000, 2_000_000, 5_000_000,
		10_000_000, 50_000_000, 100_000_000,
		500_000_000, 1_000_000_000,
	}
}

// SizeBuckets returns the default byte-size bounds for wire messages: 16B to
// 64KiB (the frame format's MaxFrameSize), powers of two.
func SizeBuckets() []int64 {
	var b []int64
	for v := int64(16); v <= 1<<16; v <<= 1 {
		b = append(b, v)
	}
	return b
}

// Series is a named family of counters keyed by label, such as a per-node
// series ("cluster.node.sessions"{node="2"}). Callers resolve the labeled
// counter once (Counter takes a lock) and cache the pointer for the hot
// path. Keep label sets bounded: a label per sensor grows with the fleet.
type Series struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// Counter returns the counter for label, creating it on first use.
func (s *Series) Counter(label string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.m[label]
	if !ok {
		c = &Counter{}
		s.m[label] = c
	}
	return c
}

// snapshot copies the family's current values.
func (s *Series) snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.m))
	for label, c := range s.m {
		out[label] = c.Value()
	}
	return out
}

// Registry holds named instruments. All lookup methods are get-or-create and
// safe for concurrent use; a nil *Registry is a valid no-op sink (every
// lookup returns nil, and nil instruments swallow updates), so call sites can
// thread an optional registry without branching.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
	series     map[string]*Series
	// histConflicts counts, per histogram name, how often a later Histogram
	// call asked for bounds that disagree with the registered instrument.
	histConflicts map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:      map[string]*Counter{},
		gauges:        map[string]*Gauge{},
		gaugeFuncs:    map[string]func() int64{},
		hists:         map[string]*Histogram{},
		series:        map[string]*Series{},
		histConflicts: map[string]int64{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated at snapshot time (for values that
// already live in someone else's atomic, like a worker-pool depth). A repeat
// registration under the same name replaces the callback.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = f
}

// Histogram returns the named histogram, creating it with the given bounds on
// first use. Later calls return the existing histogram so concurrent
// registrations of one family agree — but a later call passing *different*
// bounds is almost certainly a caller bug (two sites disagreeing about a
// family's bucket layout, with one silently losing). The mismatch is
// recorded as a conflict: HistogramConflicts reports it, and every snapshot
// carries a metrics.histogram_bounds_conflict.<name> counter so the
// disagreement is visible wherever the metrics land.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
		return h
	}
	if !h.sameBounds(bounds) {
		r.histConflicts[name]++
	}
	return h
}

// sameBounds reports whether the histogram was built with exactly these
// bounds.
func (h *Histogram) sameBounds(bounds []int64) bool {
	if len(h.bounds) != len(bounds) {
		return false
	}
	for i, b := range bounds {
		if h.bounds[i] != b {
			return false
		}
	}
	return true
}

// HistogramConflicts returns, per histogram name, how many Histogram calls
// requested bounds that disagreed with the registered instrument. An empty
// map means every registration site agrees on its family's bucket layout.
func (r *Registry) HistogramConflicts() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.histConflicts))
	for name, n := range r.histConflicts {
		out[name] = n
	}
	return out
}

// Series returns the named labeled-counter family, creating it on first use.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{m: map[string]*Counter{}}
		r.series[name] = s
	}
	return s
}

// Bucket is one histogram bucket in a snapshot: the count of observations at
// most LE. The overflow bucket carries LE = math.MaxInt64 and marshals as
// "+Inf" via its JSON tag being a large number; readers should treat it as
// unbounded.
type Bucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a registry. It is
// plain data: safe to marshal, diff, or ship elsewhere. Individual instrument
// reads are atomic but the snapshot as a whole is not (counters keep moving
// while it is taken) — fine for observability, not for accounting.
type Snapshot struct {
	TakenUnixNano int64                        `json:"taken_unix_nano"`
	Counters      map[string]int64             `json:"counters,omitempty"`
	Gauges        map[string]int64             `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Series        map[string]map[string]int64  `json:"series,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields a zero
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{TakenUnixNano: time.Now().UnixNano()}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFuncs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	series := make(map[string]*Series, len(r.series))
	for k, v := range r.series {
		series[k] = v
	}
	histConflicts := make(map[string]int64, len(r.histConflicts))
	for k, v := range r.histConflicts {
		histConflicts[k] = v
	}
	r.mu.Unlock()

	snap.Counters = make(map[string]int64, len(counters)+len(histConflicts))
	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, n := range histConflicts {
		snap.Counters["metrics.histogram_bounds_conflict."+name] = n
	}
	snap.Gauges = make(map[string]int64, len(gauges)+len(gaugeFuncs))
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, f := range gaugeFuncs {
		snap.Gauges[name] = f()
	}
	snap.Histograms = make(map[string]HistogramSnapshot, len(hists))
	for name, h := range hists {
		snap.Histograms[name] = h.snapshot()
	}
	snap.Series = make(map[string]map[string]int64, len(series))
	for name, s := range series {
		snap.Series[name] = s.snapshot()
	}
	return snap
}

// snapshot copies the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if hs.Count > 0 {
		hs.Mean = float64(hs.Sum) / float64(hs.Count)
	}
	for i := range h.counts {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		if c := h.counts[i].Load(); c > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{LE: le, Count: c})
		}
	}
	return hs
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Summary renders a one-line human digest of the snapshot's counters, sorted
// by name — the shape agetables prints between progress ticks.
func (s Snapshot) Summary() string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", n, s.Counters[n])
	}
	return out
}
