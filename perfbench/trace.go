package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is -1 for a root span; Session groups
// the spans of one sensor session (or one experiment on sweep).
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Session int32  `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op returning -1.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// begin opens a span at start; end closes it, and its id names it as a
// parent.
func (t *tracer) begin(name string, parent, session int32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	s := t.at(start)
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Session: session, Name: name, Start: s, End: s})
	t.mu.Unlock()
	return id
}

// end closes span id at ts.
func (t *tracer) end(id int32, ts time.Time) {
	if t == nil || id < 0 {
		return
	}
	e := t.at(ts)
	t.mu.Lock()
	t.spans[id].End = e
	t.mu.Unlock()
}

// add records a closed span.
func (t *tracer) add(name string, parent, session int32, start, end time.Time) int32 {
	id := t.begin(name, parent, session, start)
	t.end(id, end)
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStat is one span name's ledger line.
type layerStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// layerStats folds spans into per-name count, total and self time. A
// span's self time is its duration minus the union of its children's
// intervals clipped to it, so it is never negative.
func layerStats(spans []span) []layerStat {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerStat{}
	var names []string
	for _, s := range spans {
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerStat{Name: s.Name}
			byName[s.Name] = ls
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		ls.Count++
		ls.Total += time.Duration(dur)
		ls.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	sort.Strings(names)
	out := make([]layerStat, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// covered is how much of parent's interval the children's union covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			if v.hi > curHi {
				curHi = v.hi
			}
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("encode span %d: %w", s.ID, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
