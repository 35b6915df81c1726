// Package staging implements the middle tier of the streaming pipeline
// (decode → stage → project): per-sensor append-only logs of decoded
// records, a visibility watermark that projection workers respect, and the
// retention/trim policy that keeps memory bounded once every worker has
// moved past a prefix.
//
// # Topology
//
// A Stage owns one Log per sensor. Appends for a sensor are ordered (the
// ingest server serializes a sensor's connections, so the decode tap calls
// Append in delivery order); appends for different sensors are concurrent.
// Each record is assigned a per-sensor sequence number at append time —
// the log's coordinate system, monotonically increasing and never reused,
// independent of the frame index (which restarts at the resume point on
// reconnect and can be replayed after an eviction).
//
// # Watermark
//
// Projections that correlate across sensors (the privacy monitor's NMI
// over the fleet's message sizes) must not read ahead of the slowest
// incomplete sensor, or a quiesced snapshot would depend on arrival
// interleaving. Watermark returns
//
//	cutoff = MIN over incomplete logs of (head sequence)
//
// — the number of records visible on every still-streaming sensor.
// Completed logs are exempt so a finished sensor does not pin the cutoff
// forever; when every log is complete the watermark is the maximum head,
// making everything visible.
//
// # Retention
//
// TrimBelow drops record storage below a per-sensor sequence, never past
// the head. The projection engine trims at the slowest worker's cursor, so
// a log holds only what some worker has yet to fold. Trimming releases whole segments but
// never moves sequence numbers: Get on a trimmed sequence reports
// ok=false, and Read steps over it, rather than shifting data.
//
// # Segment arenas
//
// A segment owns the storage of its records' batches: three arenas, one
// each for indices, value rows and row headers, from which Append carves
// every record's copy. A chunk is sized to undershoot the segment's use —
// the first at 90% of what the previous segment used, each overflow at
// half the estimate for the records still to come — so a segment costs a
// handful of allocations instead of a few per record, and the storage is
// freed with the segment.
//
// # Checkpoint / restore
//
// Checkpoint captures per-sensor heads and completion flags. Restore
// rebuilds a Stage whose logs resume at those heads with all prior
// storage trimmed — the crash-restart contract is "sequence numbers
// survive, record storage does not", which is exactly what projection
// checkpoints (which carry their own aggregates) need.
package staging

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Record is one decoded, staged batch from a sensor — the unit projection
// workers consume. Indices/Values are the decoded adaptive-sampling batch;
// Truth is the optional ground-truth window supplied by loopback harnesses
// (nil in production, where the server cannot know it).
type Record struct {
	// Seq is the per-sensor sequence number assigned at append time.
	Seq int
	// Index is the frame's lifetime position in the sensor's stream.
	Index int
	// WireBytes is the sealed frame's on-the-wire size, the privacy
	// monitor's observable.
	WireBytes int
	// Label is the window's event label when known (-1 otherwise) — the
	// class the attack recovers, secret for leaktaint.
	Label int //age:secret
	// RecvUnixNano is the server-side arrival time.
	RecvUnixNano int64
	// Indices and Values are the decoded batch (collected time steps and
	// their measurement rows). Once staged they live in the segment's
	// arenas and are read-only.
	Indices []int
	Values  [][]float64
	// Truth is the full ground-truth window when a harness supplies one.
	Truth [][]float64
}

// segSize is the per-segment record capacity. Appends fill the tail
// segment and chain a new one when full; TrimBelow frees whole segments.
const segSize = 64

// segment is one fixed-capacity run of consecutive records, plus the
// arenas their batches are copied into.
type segment struct {
	base int // sequence number of recs[0]
	recs []Record
	ints arena[int]
	vals arena[float64]
	rows arena[[]float64]
}

// newSegment starts the segment after prev (nil for a log's first
// segment, or after a trim emptied it). Each arena's first chunk is 90%
// of what prev used, so a segment shaped like its predecessor undershoots
// and tops up with small overflow chunks instead of wasting a tail.
func newSegment(base int, prev *segment) *segment {
	sg := &segment{base: base, recs: make([]Record, 0, segSize)}
	if prev != nil {
		sg.ints.first = prev.ints.used * 9 / 10
		sg.vals.first = prev.vals.used * 9 / 10
		sg.rows.first = prev.rows.used * 9 / 10
	}
	return sg
}

// own replaces rec's batch with a copy carved from the segment's arenas,
// so the caller's batch can be reused once Append returns. A zero-length
// slice is not copied: it keeps its nil-ness (the mae KPI skips records
// without indices) and loses its capacity, so nothing aliases the caller.
//
//age:hotpath
func (sg *segment) own(rec *Record) {
	n := len(sg.recs)
	if len(rec.Indices) == 0 {
		rec.Indices = rec.Indices[:0:0]
	} else {
		idx := sg.ints.carve(len(rec.Indices), n)
		copy(idx, rec.Indices)
		rec.Indices = idx
	}
	if len(rec.Values) == 0 {
		rec.Values = rec.Values[:0:0]
		return
	}
	total := 0
	for _, row := range rec.Values {
		total += len(row)
	}
	flat := sg.vals.carve(total, n)
	rows := sg.rows.carve(len(rec.Values), n)
	for i, row := range rec.Values {
		rows[i] = flat[:len(row):len(row)]
		copy(rows[i], row)
		flat = flat[len(row):]
	}
	rec.Values = rows
}

// arena is one segment's storage of T for its records' batches.
type arena[T any] struct {
	chunk []T // current chunk; len is the carved prefix
	used  int // elements carved in this segment, over all its chunks
	first int // first chunk's size; 0 sizes it from the first record
}

// carve returns n fresh elements for the segment's record number rec
// (0-based), starting a new chunk when the current one cannot hold them.
// The segment's first chunk is a.first, or without a usable hint a
// segment's worth of records the size of this one. An overflow chunk is
// half the records left, this one included, at the segment's mean use so
// far.
//
//age:hotpath
func (a *arena[T]) carve(n, rec int) []T {
	if n > cap(a.chunk)-len(a.chunk) {
		size := a.first
		if cap(a.chunk) > 0 {
			size = (a.used + n) / (rec + 1) * ((segSize - rec + 1) / 2)
		} else if size < n {
			size = n * (segSize - rec)
		}
		// Growing from nil, as slices.Grow does, rounds the chunk up to the
		// allocator's size class: the rounding becomes room, not waste.
		//age:allow hotpathalloc one chunk serves many records and is freed with its segment; sizing undershoots, so a segment makes a few of these, not one per record
		a.chunk = append([]T(nil), make([]T, max(n, size))...)[:0]
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	a.used += n
	return a.chunk[start : start+n : start+n]
}

// Log is one sensor's append-only staged log. A Log is safe for one
// appender and many concurrent readers.
type Log struct {
	mu       sync.Mutex
	segs     []*segment
	next     int  // sequence the next append receives (head)
	trimmed  int  // lowest retained sequence
	complete bool // final ack observed; no more appends expected
}

// Stage is the set of per-sensor logs plus subscriber plumbing.
type Stage struct {
	mu sync.Mutex // serializes changes to the set of logs and subscribers
	// view is the sorted snapshot of the logs, replaced under mu whenever
	// a log is created and read without a lock.
	view atomic.Pointer[view]
	// subs is the subscriber list, copied on write under mu so notify
	// reads it without a lock.
	subs atomic.Pointer[[]chan struct{}]
}

// view is a sorted snapshot of a stage's logs: logs[i] is sensor ids[i].
type view struct {
	ids  []int
	logs []*Log
}

// New creates an empty Stage.
func New() *Stage {
	s := &Stage{}
	s.view.Store(&view{})
	return s
}

// Log returns the sensor's log, or nil when the sensor has none. It never
// creates one: only Append, Complete and Reopen do, so a read, a trim or a
// worker scan leaves the set of logs as it is.
func (s *Stage) Log(sensorID int) *Log {
	v := s.view.Load()
	if i, ok := slices.BinarySearch(v.ids, sensorID); ok {
		return v.logs[i]
	}
	return nil
}

// logFor returns the sensor's log, creating it on first use.
func (s *Stage) logFor(sensorID int) *Log {
	if l := s.Log(sensorID); l != nil {
		return l
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view.Load()
	i, ok := slices.BinarySearch(v.ids, sensorID)
	if ok {
		return v.logs[i]
	}
	l := &Log{}
	s.view.Store(&view{
		ids:  slices.Insert(slices.Clip(v.ids), i, sensorID),
		logs: slices.Insert(slices.Clip(v.logs), i, l),
	})
	return l
}

// Logs returns every known log and its sensor id, sorted by id: logs[i]
// belongs to ids[i]. Both slices are a shared snapshot, replaced only when
// a log is created; callers must not modify them.
func (s *Stage) Logs() (ids []int, logs []*Log) {
	v := s.view.Load()
	return v.ids, v.logs
}

// Sensors returns the ids of every known log, sorted. The slice is the
// shared snapshot Logs returns; callers must not modify it.
func (s *Stage) Sensors() []int {
	return s.view.Load().ids
}

// Subscribe returns a channel that receives a (coalesced) signal after
// every append or completion. Workers block on it instead of polling.
func (s *Stage) Subscribe() <-chan struct{} {
	ch := make(chan struct{}, 1)
	s.mu.Lock()
	var subs []chan struct{}
	if p := s.subs.Load(); p != nil {
		subs = *p
	}
	subs = append(subs[:len(subs):len(subs)], ch)
	s.subs.Store(&subs)
	s.mu.Unlock()
	return ch
}

// notify pokes every subscriber without blocking. It takes no lock —
// the subscriber list is a copy-on-write snapshot — and channel sends
// under a mutex are forbidden here anyway (internal/agevet lockedblock).
func (s *Stage) notify() {
	p := s.subs.Load()
	if p == nil {
		return
	}
	for _, ch := range *p {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Append assigns the next sequence number to rec, stores it, signals
// subscribers, and returns the assigned sequence. It copies rec.Indices
// and rec.Values into storage the log owns, so the caller may reuse its
// batch as soon as Append returns; rec.Truth is kept as given.
func (s *Stage) Append(sensorID int, rec Record) int {
	l := s.logFor(sensorID)
	l.mu.Lock()
	rec.Seq = l.next
	tail := l.tailLocked()
	if tail == nil || len(tail.recs) == cap(tail.recs) {
		tail = newSegment(l.next, tail)
		l.segs = append(l.segs, tail)
	}
	tail.own(&rec)
	tail.recs = append(tail.recs, rec)
	l.next++
	seq := rec.Seq
	l.mu.Unlock()
	s.notify()
	return seq
}

// Complete marks the sensor's log finished (final ack observed): the
// watermark stops bounding on it, and subscribers are woken so workers
// can re-evaluate visibility.
func (s *Stage) Complete(sensorID int) {
	l := s.logFor(sensorID)
	l.mu.Lock()
	l.complete = true
	l.mu.Unlock()
	s.notify()
}

// Reopen clears a log's completion flag — a sensor evicted after a final
// ack has reconnected and is streaming again, so the watermark must bound
// on it once more.
func (s *Stage) Reopen(sensorID int) {
	l := s.logFor(sensorID)
	l.mu.Lock()
	l.complete = false
	l.mu.Unlock()
}

// Watermark returns the cross-sensor visibility cutoff: the minimum head
// over incomplete logs, or the maximum head when every log is complete.
// An empty stage has watermark 0.
func (s *Stage) Watermark() int {
	minIncomplete, maxHead := -1, 0
	for _, l := range s.view.Load().logs {
		head, complete := l.state()
		if head > maxHead {
			maxHead = head
		}
		if !complete && (minIncomplete < 0 || head < minIncomplete) {
			minIncomplete = head
		}
	}
	if minIncomplete >= 0 {
		return minIncomplete
	}
	return maxHead
}

// TrimBelow releases record storage below seq on the sensor's log. A seq
// past the head is clamped to it, so a trim never hides future appends.
// Sequence numbers are unaffected. A sensor without a log is left alone.
func (s *Stage) TrimBelow(sensorID, seq int) {
	l := s.Log(sensorID)
	if l == nil {
		return
	}
	l.mu.Lock()
	seq = min(seq, l.next)
	if seq > l.trimmed {
		l.trimmed = seq
		// Drop whole segments that lie entirely below the trim point,
		// shifting the survivors down in place.
		drop := 0
		for drop < len(l.segs) && l.segs[drop].base+len(l.segs[drop].recs) <= seq {
			drop++
		}
		if drop > 0 {
			n := copy(l.segs, l.segs[drop:])
			clear(l.segs[n:])
			l.segs = l.segs[:n]
		}
	}
	l.mu.Unlock()
}

// Checkpoint captures the stage's durable coordinates.
type Checkpoint struct {
	Sensors map[int]LogCheckpoint `json:"sensors"`
}

// LogCheckpoint is one log's durable state: its head sequence and whether
// the stream had completed.
type LogCheckpoint struct {
	Head     int  `json:"head"`
	Complete bool `json:"complete"`
}

// Checkpoint snapshots every log's head and completion flag.
func (s *Stage) Checkpoint() Checkpoint {
	cp := Checkpoint{Sensors: map[int]LogCheckpoint{}}
	v := s.view.Load()
	for i, l := range v.logs {
		head, complete := l.state()
		cp.Sensors[v.ids[i]] = LogCheckpoint{Head: head, Complete: complete}
	}
	return cp
}

// Restore builds a Stage whose logs resume at the checkpointed heads with
// everything below them trimmed: the next append on sensor i receives
// sequence cp.Sensors[i].Head, and Get on any earlier sequence reports
// ok=false.
func Restore(cp Checkpoint) *Stage {
	v := &view{}
	for id := range cp.Sensors {
		v.ids = append(v.ids, id)
	}
	slices.Sort(v.ids)
	for _, id := range v.ids {
		lc := cp.Sensors[id]
		v.logs = append(v.logs, &Log{next: lc.Head, trimmed: lc.Head, complete: lc.Complete})
	}
	s := &Stage{}
	s.view.Store(v)
	return s
}

// tailLocked returns the last segment, or nil. Caller holds l.mu.
func (l *Log) tailLocked() *segment {
	if len(l.segs) == 0 {
		return nil
	}
	return l.segs[len(l.segs)-1]
}

// state returns the log's head sequence and completion flag.
func (l *Log) state() (head int, complete bool) {
	l.mu.Lock()
	head, complete = l.next, l.complete
	l.mu.Unlock()
	return head, complete
}

// Head returns the sequence the next append will receive.
func (l *Log) Head() int {
	h, _ := l.state()
	return h
}

// Trimmed returns the lowest sequence still retained.
func (l *Log) Trimmed() int {
	l.mu.Lock()
	t := l.trimmed
	l.mu.Unlock()
	return t
}

// Complete reports whether the log has been marked finished.
func (l *Log) Complete() bool {
	_, c := l.state()
	return c
}

// Get returns the record at seq. ok is false when seq is below the trim
// point, at or above the head, or inside a trimmed segment.
func (l *Log) Get(seq int) (Record, bool) {
	var buf [1]Record
	got, _ := l.Read(buf[:0], seq, seq+1)
	if len(got) == 0 {
		return Record{}, false
	}
	return got[0], true
}

// Read appends the retained records with sequences in [from, to) to dst, in
// sequence order and under one lock hold, and returns dst and the sequence
// after the last one it covered. It never grows dst: when a record does not
// fit in cap(dst), Read stops and returns that record's sequence. Sequences
// it holds no record for (below the trim point, or at or above the head)
// are covered without appending anything, so a reader that resumes from the
// returned sequence steps over a trimmed gap in one call; when everything
// fits Read returns to (from, when to <= from).
//
//age:hotpath
func (l *Log) Read(dst []Record, from, to int) ([]Record, int) {
	l.mu.Lock()
	lo, hi := max(from, l.trimmed), min(to, l.next)
	// Binary search for the first segment that ends above lo.
	i, j := 0, len(l.segs)
	for i < j {
		mid := (i + j) / 2
		if l.segs[mid].base+len(l.segs[mid].recs) <= lo {
			i = mid + 1
		} else {
			j = mid
		}
	}
	for ; lo < hi && i < len(l.segs) && l.segs[i].base < hi; i++ {
		sg := l.segs[i]
		start, end := max(lo, sg.base), min(hi, sg.base+len(sg.recs))
		if room := cap(dst) - len(dst); end-start > room {
			dst = append(dst, sg.recs[start-sg.base:start-sg.base+room]...)
			l.mu.Unlock()
			return dst, start + room
		}
		dst = append(dst, sg.recs[start-sg.base:end-sg.base]...)
	}
	l.mu.Unlock()
	return dst, max(from, to)
}
