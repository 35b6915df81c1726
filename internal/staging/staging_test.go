package staging

import (
	"sync"
	"testing"
)

func rec(index, bytes int) Record {
	return Record{Index: index, WireBytes: bytes, Label: -1}
}

func TestAppendGetSequencing(t *testing.T) {
	s := New()
	for i := 0; i < 200; i++ {
		if seq := s.Append(3, rec(i, 100+i)); seq != i {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	l := s.Log(3)
	if l.Head() != 200 {
		t.Fatalf("head = %d", l.Head())
	}
	for i := 0; i < 200; i++ {
		r, ok := l.Get(i)
		if !ok || r.Seq != i || r.Index != i || r.WireBytes != 100+i {
			t.Fatalf("get %d = %+v ok=%v", i, r, ok)
		}
	}
	if _, ok := l.Get(200); ok {
		t.Error("read past head succeeded")
	}
	if _, ok := l.Get(-1); ok {
		t.Error("negative read succeeded")
	}
}

func TestWatermarkBoundsOnIncomplete(t *testing.T) {
	s := New()
	if s.Watermark() != 0 {
		t.Fatalf("empty watermark = %d", s.Watermark())
	}
	for i := 0; i < 5; i++ {
		s.Append(1, rec(i, 10))
	}
	for i := 0; i < 3; i++ {
		s.Append(2, rec(i, 10))
	}
	if got := s.Watermark(); got != 3 {
		t.Fatalf("watermark = %d, want 3 (slowest incomplete)", got)
	}
	// Completing the slow sensor exempts it: the cutoff jumps to the
	// remaining incomplete log's head.
	s.Complete(2)
	if got := s.Watermark(); got != 5 {
		t.Fatalf("watermark after complete(2) = %d, want 5", got)
	}
	// All complete -> max head, everything visible.
	s.Complete(1)
	if got := s.Watermark(); got != 5 {
		t.Fatalf("watermark all-complete = %d, want 5", got)
	}
	// Reopen pins it again.
	s.Reopen(2)
	if got := s.Watermark(); got != 3 {
		t.Fatalf("watermark after reopen = %d, want 3", got)
	}
}

func TestTrimRetainsSuffixAndSequences(t *testing.T) {
	s := New()
	for i := 0; i < 300; i++ {
		s.Append(7, rec(i, 10))
	}
	l := s.Log(7)
	s.TrimBelow(7, 250)
	if got := l.Trimmed(); got != 250 {
		t.Fatalf("trimmed = %d, want 250", got)
	}
	if _, ok := l.Get(100); ok {
		t.Error("trimmed record still readable")
	}
	// Segment-granular release: records at/above the trim point whose
	// segment survives are still readable, and sequences never shift.
	for seq := 250; seq < 300; seq++ {
		r, ok := l.Get(seq)
		if !ok || r.Index != seq {
			t.Fatalf("get %d after trim = %+v ok=%v", seq, r, ok)
		}
	}
	// A trim past the head is clamped to it, so the next append stays
	// readable.
	s.TrimBelow(7, 400)
	if got := l.Trimmed(); got != 300 {
		t.Fatalf("trimmed after clamp = %d, want 300 (head)", got)
	}
	s.Append(7, rec(300, 10))
	if r, ok := l.Get(300); !ok || r.Index != 300 {
		t.Fatalf("append after a trim past the head: get(300) = %+v ok=%v", r, ok)
	}
	// Trims never move backwards.
	s.TrimBelow(7, 0)
	if got := l.Trimmed(); got != 300 {
		t.Fatalf("trimmed after backward trim = %d", got)
	}
}

func TestSubscribeSignalsAppends(t *testing.T) {
	s := New()
	ch := s.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Append(1, rec(0, 10))
	}()
	<-ch
	<-done
	if s.Log(1).Head() != 1 {
		t.Fatal("signal arrived before append visible")
	}
	// Completion signals too.
	go s.Complete(1)
	<-ch
}

func TestCheckpointRestoreResumesSequences(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Append(1, rec(i, 10))
	}
	for i := 0; i < 4; i++ {
		s.Append(2, rec(i, 10))
	}
	s.Complete(2)
	cp := s.Checkpoint()
	if cp.Sensors[1] != (LogCheckpoint{Head: 10}) {
		t.Fatalf("cp sensor 1 = %+v", cp.Sensors[1])
	}
	if cp.Sensors[2] != (LogCheckpoint{Head: 4, Complete: true}) {
		t.Fatalf("cp sensor 2 = %+v", cp.Sensors[2])
	}

	r := Restore(cp)
	// Sequences resume exactly where they left off; prior storage is gone.
	if seq := r.Append(1, rec(10, 10)); seq != 10 {
		t.Fatalf("restored append seq = %d, want 10", seq)
	}
	if _, ok := r.Log(1).Get(5); ok {
		t.Error("pre-checkpoint record readable after restore")
	}
	if got, ok := r.Log(1).Get(10); !ok || got.Index != 10 {
		t.Fatalf("post-restore append unreadable: %+v ok=%v", got, ok)
	}
	if !r.Log(2).Complete() {
		t.Error("completion flag lost across restore")
	}
	if got := r.Watermark(); got != 11 {
		t.Fatalf("restored watermark = %d, want 11", got)
	}
}

// TestConcurrentAppendersAndReaders exercises the documented concurrency
// contract under -race: one appender per sensor, readers chasing the
// watermark across sensors.
func TestConcurrentAppendersAndReaders(t *testing.T) {
	const sensors, perSensor = 8, 500
	s := New()
	var wg sync.WaitGroup
	for id := 0; id < sensors; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perSensor; i++ {
				s.Append(id, rec(i, 10+id))
				if i%100 == 0 {
					s.TrimBelow(id, i-100)
				}
			}
			s.Complete(id)
		}(id)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			ch := s.Subscribe()
			for {
				select {
				case <-stop:
					return
				case <-ch:
				}
				cut := s.Watermark()
				for _, id := range s.Sensors() {
					l := s.Log(id)
					lo := l.Trimmed()
					for seq := lo; seq < cut && seq < lo+10; seq++ {
						if r, ok := l.Get(seq); ok && r.Seq != seq {
							t.Errorf("sensor %d seq %d holds record %d", id, seq, r.Seq)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if got := s.Watermark(); got != perSensor {
		t.Fatalf("final watermark = %d, want %d", got, perSensor)
	}
}

// batchRecord returns a record whose batch has rows rows of width d, the
// values derived from (index, row, column) so every copy is checkable.
func batchRecord(index, rows, d int) Record {
	r := rec(index, 64)
	for i := 0; i < rows; i++ {
		r.Indices = append(r.Indices, 3*i+index%3)
		row := make([]float64, d)
		for f := range row {
			row[f] = float64(index*1000 + i*10 + f)
		}
		r.Values = append(r.Values, row)
	}
	return r
}

func sameBatch(a, b Record) bool {
	if len(a.Indices) != len(b.Indices) || len(a.Values) != len(b.Values) ||
		(a.Indices == nil) != (b.Indices == nil) || (a.Values == nil) != (b.Values == nil) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	for i := range a.Values {
		if len(a.Values[i]) != len(b.Values[i]) {
			return false
		}
		for f := range a.Values[i] {
			if a.Values[i][f] != b.Values[i][f] {
				return false
			}
		}
	}
	return true
}

// TestAppendCopiesBatch checks Append's ownership contract across segments
// whose records vary in size, so the arenas go through first chunks sized
// from a hint, from a first record, and overflow chunks: each staged batch
// equals what was appended even after the caller overwrites its own, no
// two records share storage, and nil or empty slices keep their nil-ness.
func TestAppendCopiesBatch(t *testing.T) {
	shaped := func(i int) Record {
		r := batchRecord(i, 1+(i*7)%13, 1+i%4)
		switch i % 50 {
		case 7:
			r.Indices, r.Values = nil, nil
		case 8:
			r.Indices, r.Values = []int{}, [][]float64{}
		}
		return r
	}
	s := New()
	const n = 5 * segSize
	for i := 0; i < n; i++ {
		r := shaped(i)
		s.Append(4, r)
		// The caller reuses its batch: scribble over it.
		for k := range r.Indices {
			r.Indices[k] = -1
		}
		for _, row := range r.Values {
			for f := range row {
				row[f] = -1
			}
		}
	}
	l := s.Log(4)
	seen := map[*float64]int{}
	for i := 0; i < n; i++ {
		got, ok := l.Get(i)
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		if want := shaped(i); !sameBatch(got, want) {
			t.Fatalf("record %d = %v %v, want %v %v", i, got.Indices, got.Values, want.Indices, want.Values)
		}
		if cap(got.Indices) != len(got.Indices) || cap(got.Values) != len(got.Values) {
			t.Fatalf("record %d has spare capacity an append could write through", i)
		}
		for _, row := range got.Values {
			if len(row) == 0 {
				continue
			}
			if j, dup := seen[&row[0]]; dup {
				t.Fatalf("records %d and %d share a row", j, i)
			}
			seen[&row[0]] = i
		}
	}
}

// TestArenaChunksUndershoot checks the arena sizing: with records all the
// same size, a log's first segment is carved from one chunk per arena, and
// later segments start at 90% of the previous one's use.
func TestArenaChunksUndershoot(t *testing.T) {
	s := New()
	const rows, d = 10, 6
	for i := 0; i < 4*segSize; i++ {
		s.Append(1, batchRecord(i, rows, d))
	}
	for k, sg := range s.Log(1).segs {
		if sg.ints.used != rows*segSize || sg.vals.used != rows*d*segSize || sg.rows.used != rows*segSize {
			t.Fatalf("segment %d used %d/%d/%d", k, sg.ints.used, sg.vals.used, sg.rows.used)
		}
		if k == 0 && (sg.vals.first != 0 || len(sg.vals.chunk) != sg.vals.used) {
			t.Fatalf("first segment: hint %d, last chunk holds %d of %d, want no hint and one chunk",
				sg.vals.first, len(sg.vals.chunk), sg.vals.used)
		}
		if k > 0 && sg.vals.first != rows*d*segSize*9/10 {
			t.Fatalf("segment %d: first chunk %d, want 90%% of %d", k, sg.vals.first, rows*d*segSize)
		}
	}
}

// BenchmarkAppend stages stream-shaped records (12 rows of 6) on one
// sensor, trimming each segment once it is full, as the projection's
// workers would once all had folded it.
func BenchmarkAppend(b *testing.B) {
	r := batchRecord(0, 12, 6)
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(0, r)
		if i%segSize == segSize-1 {
			s.TrimBelow(0, i)
		}
	}
}

// BenchmarkTrimBelow advances the trim point one record per call, as a
// drain does, so one call in segSize frees a segment.
func BenchmarkTrimBelow(b *testing.B) {
	r := batchRecord(0, 12, 6)
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%segSize == 0 {
			b.StopTimer()
			for k := 0; k < segSize; k++ {
				s.Append(0, r)
			}
			b.StartTimer()
		}
		s.TrimBelow(0, i+1)
	}
}

// FuzzStageModel drives random sequences of Complete, Append, a whole-stage
// Checkpoint→Restore and TrimBelow over three sensors against a model of
// each log's (head, complete) and checks that a log's head never rewinds,
// that the next append gets the head, that completion only latches, and
// that every head and completion flag survives the Checkpoint→Restore round
// trip. Each op takes four bytes: kind, sensor, a signed trim point, and a
// flag (unused).
func FuzzStageModel(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 5, 1, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 1, 20, 0, 1, 1, 0, 0, 0, 1, 3, 1, 3, 1, 10, 0, 2, 1, 0, 0})
	f.Add([]byte{0, 2, 0xff, 1, 1, 2, 0, 0, 3, 2, 1, 1, 2, 2, 0, 0, 0, 2, 7, 0})
	type model struct {
		head     int
		complete bool
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New()
		logs := map[int]*model{}
		for i := 0; i+4 <= len(ops); i += 4 {
			id, arg := int(ops[i+1]%3), int(int8(ops[i+2]))
			m := logs[id]
			if m == nil && ops[i]%4 < 2 {
				m = &model{}
				logs[id] = m
			}
			switch ops[i] % 4 {
			case 0:
				s.Complete(id)
				m.complete = true
			case 1:
				want := m.head
				if seq := s.Append(id, rec(want, 10)); seq != want {
					t.Fatalf("op %d: append on sensor %d got seq %d, want %d", i/4, id, seq, want)
				}
				m.head++
				if r, ok := s.Log(id).Get(want); !ok || r.Seq != want || r.Index != want {
					t.Fatalf("op %d: get(%d) = %+v ok=%v", i/4, want, r, ok)
				}
			case 2:
				s = Restore(s.Checkpoint())
			case 3:
				s.TrimBelow(id, arg)
			}
			for id, m := range logs {
				l := s.Log(id)
				if l == nil {
					t.Fatalf("op %d: sensor %d lost its log", i/4, id)
				}
				if head, complete := l.Head(), l.Complete(); head != m.head || complete != m.complete {
					t.Fatalf("op %d: sensor %d head %d complete %v, want %d %v (head only advances, completion only latches)",
						i/4, id, head, complete, m.head, m.complete)
				}
			}
			for id := range 3 {
				if _, live := logs[id]; !live && s.Log(id) != nil {
					t.Fatalf("op %d: sensor %d has a log it should not", i/4, id)
				}
			}
		}
	})
}

// getOracle is Get as it stood before Read: a binary search for the owning
// segment of one sequence.
func getOracle(l *Log, seq int) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.trimmed || seq >= l.next || len(l.segs) == 0 {
		return Record{}, false
	}
	lo, hi := 0, len(l.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.segs[mid].base+len(l.segs[mid].recs) <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(l.segs) || seq < l.segs[lo].base {
		return Record{}, false
	}
	return l.segs[lo].recs[seq-l.segs[lo].base], true
}

// readOracle is the projection drain's per-sequence loop as it stood before
// Read, stopped at the first retained record beyond n: a miss steps to the
// trim point (or one past the miss) without folding anything.
func readOracle(l *Log, from, to, n int) ([]Record, int) {
	var got []Record
	cur := from
	for cur < to {
		r, ok := getOracle(l, cur)
		if !ok {
			cur = max(cur+1, min(l.Trimmed(), to))
			continue
		}
		if len(got) == n {
			break
		}
		got = append(got, r)
		cur++
	}
	return got, cur
}

// FuzzLogRead drives random schedules of Append, TrimBelow and a whole-stage
// Checkpoint→Restore on one log and checks that Read over a fuzzed range, into a fuzzed dst
// (capacity and a prefix it must keep), returns exactly the records and the
// next sequence of the per-sequence Get loop it replaces, trimmed gaps and
// ranges past the head included. Each op takes four bytes: kind and three
// arguments (a trim uses two).
func FuzzLogRead(f *testing.F) {
	f.Add([]byte{0, 200, 0, 0, 3, 10, 100, 70})
	f.Add([]byte{0, 130, 0, 0, 1, 70, 0, 0, 3, 0, 200, 65, 3, 64, 10, 1})
	f.Add([]byte{0, 100, 0, 0, 2, 150, 0, 0, 0, 5, 0, 0, 3, 0, 255, 20})
	f.Add([]byte{0, 40, 0, 0, 1, 30, 0, 0xff, 0, 20, 0, 0, 3, 20, 60, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New()
		const id = 5
		head := func() int {
			if l := s.Log(id); l != nil {
				return l.Head()
			}
			return 0
		}
		sentinel := Record{Seq: -7, Index: -7}
		for i := 0; i+4 <= len(ops); i += 4 {
			a, b, c := int(ops[i+1]), int(ops[i+2]), int(ops[i+3])
			switch ops[i] % 4 {
			case 0:
				for k := 0; k < 1+a%(2*segSize); k++ {
					h := head()
					s.Append(id, rec(h, 10+h))
				}
			case 1:
				s.TrimBelow(id, (a|b<<8)%(head()+8))
			case 2:
				s = Restore(s.Checkpoint())
			case 3:
				l := s.Log(id)
				if l == nil {
					break
				}
				from := a%(head()+8) - 2
				to := from + b - 5
				prefix, room := c%3, c/3%(segSize+8)
				dst := make([]Record, prefix, prefix+room)
				for k := range dst {
					dst[k] = sentinel
				}
				got, next := l.Read(dst, from, to)
				want, wantNext := readOracle(l, from, to, room)
				if next != wantNext || len(got) != prefix+len(want) || cap(got) != prefix+room {
					t.Fatalf("op %d: Read(%d, %d) cap %d+%d = %d records, next %d; Get loop %d records, next %d",
						i/4, from, to, prefix, room, len(got)-prefix, next, len(want), wantNext)
				}
				for k := range prefix {
					if got[k].Seq != sentinel.Seq || got[k].Index != sentinel.Index {
						t.Fatalf("op %d: Read overwrote dst[%d]", i/4, k)
					}
				}
				for k, r := range want {
					if g := got[prefix+k]; g.Seq != r.Seq || g.Index != r.Index || g.WireBytes != r.WireBytes {
						t.Fatalf("op %d: Read record %d = %+v, Get loop %+v", i/4, k, g, r)
					}
				}
			}
		}
	})
}
