package projection

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/staging"
)

// parkingKPI counts the records it folds, spending about as long on each
// as a real KPI does. The first apply parks, holding the worker's lock,
// until the test releases it.
type parkingKPI struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
	applied int
}

func (k *parkingKPI) apply(int, staging.Record) {
	k.once.Do(func() {
		close(k.entered)
		<-k.release
	})
	for start := time.Now(); time.Since(start) < 2*time.Microsecond; {
	}
	k.applied++
}

func (k *parkingKPI) marshal() json.RawMessage  { return json.RawMessage(strconv.Itoa(k.applied)) }
func (k *parkingKPI) unmarshal(json.RawMessage) {}

// TestCheckpointNeverTearsFold pins the worker's fold invariant: a record's
// fold and its cursor advance land in a checkpoint together, so the
// checkpointed state covers exactly the checkpointed cursors. A checkpoint
// that caught the fold without the advance would make Restore fold that
// record a second time. Each round parks the KPI mid-fold, queues two
// checkpointers on the worker's lock, releases the KPI, and keeps
// checkpointing until the worker has folded every record.
func TestCheckpointNeverTearsFold(t *testing.T) {
	const frames = 500
	for round := 0; round < 20 && !t.Failed(); round++ {
		e := New(Config{T: testT, D: testD, Now: func() int64 { return 5e9 }})
		k := &parkingKPI{entered: make(chan struct{}), release: make(chan struct{})}
		w := e.workers[0]
		w.mu.Lock()
		w.kpi = k
		w.mu.Unlock()
		feedAll(e, 1, 0, frames)

		<-k.entered
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					cp := e.Checkpoint()
					wc := cp.Workers[w.name]
					applied, err := strconv.Atoi(string(wc.State))
					if err != nil {
						t.Error(err)
						return
					}
					if applied != wc.Cursors[0] || cp.Sensors[0].Resume > applied {
						t.Errorf("round %d: checkpoint folded %d records, cursor %d, resume %d",
							round, applied, wc.Cursors[0], cp.Sensors[0].Resume)
						return
					}
					if applied == frames {
						return
					}
				}
			}()
		}
		// Let the checkpointers queue on the parked worker's lock; the
		// invariant holds whenever they actually run.
		time.Sleep(time.Millisecond)
		close(k.release)
		wg.Wait()
		e.Close()
	}
}

// TestStagedStorageFollowsSlowestWorker pins the retention rule: a staged
// record lives until every worker has folded it. A stalled sensor's
// watermark holds the privacy worker back, so the other sensor's log keeps
// exactly the records from the privacy cursor on, even after Close; a
// worker parked mid-fold keeps everything at and above its cursors while
// the others run ahead; and once every worker has folded everything, every
// log is trimmed to its head.
func TestStagedStorageFollowsSlowestWorker(t *testing.T) {
	const lag, first, frames = 10, 100, 300
	cfg := Config{T: testT, D: testD, Now: func() int64 { return 5e9 }}
	feed := func(e *Engine, id, from, to int) {
		for i := from; i < to; i++ {
			e.Feed(id, feedRecord(id, i))
		}
	}
	// retained checks that the sensor's log holds every record from the
	// slowest cursor from up to its head.
	retained := func(e *Engine, id, from int) {
		t.Helper()
		l := e.stage.Log(id)
		head := l.Head()
		if got := l.Trimmed(); got > from {
			t.Errorf("sensor %d trimmed to %d, above the slowest cursor %d", id, got, from)
		}
		run, next := l.Read(make([]staging.Record, 0, head), from, head)
		if len(run) != head-from || next != head || run[0].Seq != from {
			t.Errorf("sensor %d: read %d records from %d, next %d; want %d, next %d",
				id, len(run), from, next, head-from, head)
		}
	}

	// Sensor 0 stalls at lag records and never completes, so the watermark
	// holds the privacy worker at lag on sensor 1 while mae and events fold
	// it to first.
	e := New(cfg)
	feed(e, 0, 0, lag)
	feed(e, 1, 0, first)
	e.Close()
	if got := e.stage.Log(1).Trimmed(); got != lag {
		t.Errorf("sensor 1 trimmed to %d, want the privacy cursor %d", got, lag)
	}
	retained(e, 1, lag)

	e = New(cfg)
	feed(e, 0, 0, first)
	feed(e, 1, 0, first)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if e.stage.Log(0).Trimmed() == first && e.stage.Log(1).Trimmed() == first {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the first records to fold and trim")
		}
	}
	k := &parkingKPI{entered: make(chan struct{}), release: make(chan struct{})}
	mae, events := e.workers[0], e.workers[1]
	mae.mu.Lock()
	mae.kpi = k
	mae.mu.Unlock()
	feed(e, 0, first, frames)
	feed(e, 1, first, frames)
	<-k.entered
	// Sensors fold in id order, so mae is parked at cursor first on both.
	// Events folds past it until its trim waits on mae's lock.
	for deadline := time.Now().Add(10 * time.Second); events.cursor(0) <= first; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for events to pass the parked cursor")
		}
	}
	retained(e, 0, first)
	retained(e, 1, first)
	close(k.release)
	e.Close()
	for id := 0; id < 2; id++ {
		if l := e.stage.Log(id); l.Trimmed() != l.Head() {
			t.Errorf("sensor %d: trimmed to %d after Close, head %d", id, l.Trimmed(), l.Head())
		}
	}
}

// TestRestoreCarriesStagedCount checks that a restored engine counts the
// records below each sensor's Resume as staged, before any refeed.
func TestRestoreCarriesStagedCount(t *testing.T) {
	cp := Checkpoint{Sensors: map[int]SensorCheckpoint{0: {Resume: 7}, 1: {Resume: 5, Complete: true}}}
	e := Restore(Config{T: testT, D: testD, Now: func() int64 { return 5e9 }}, cp)
	defer e.Close()
	if got := e.Snapshot().StagedRecords; got != 12 {
		t.Fatalf("restored staged records = %d, want 12", got)
	}
	e.Feed(0, feedRecord(0, 7))
	if got := e.Snapshot().StagedRecords; got != 13 {
		t.Fatalf("staged records after refeed = %d, want 13", got)
	}
}

// TestStageFrameAllocatesOnlyOwningCopy bounds the tap's per-frame
// allocations with an AGE decoder: the staged record's owning copy (index
// slice, row table, one slice per row) plus the stage's subscriber signal.
// The workers are stopped first so only the tap is counted, and GC is off
// so a collection cannot empty the decode pool mid-run.
func TestStageFrameAllocatesOnlyOwningCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := testCodecConfig()
	cfg.TargetBytes = core.TargetBytesForRate(0.5, testT, testD, cfg.Format.Width)
	codec, err := core.NewAGE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := codec.Encode(frameBatch(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{T: testT, D: testD, Decode: codec, Now: func() int64 { return 5e9 }})
	e.Close()
	index := 0
	allocs := testing.AllocsPerRun(100, func() {
		e.StageFrame(0, index, payload)
		index++
	})
	rows := len(want.Values)
	if limit := float64(rows + 3); allocs > limit {
		t.Errorf("StageFrame allocs/frame = %v, want <= %v for %d rows", allocs, limit, rows)
	}
	if n := e.Snapshot().DecodeErrors; n != 0 {
		t.Fatalf("%d decode errors", n)
	}
	rec, ok := e.stage.Log(0).Get(index - 1)
	if !ok {
		t.Fatal("last staged record missing")
	}
	for i := range want.Indices {
		if rec.Indices[i] != want.Indices[i] {
			t.Fatalf("staged index %d = %d, want %d", i, rec.Indices[i], want.Indices[i])
		}
		for f, v := range want.Values[i] {
			if rec.Values[i][f] != v {
				t.Fatalf("staged value [%d][%d] = %v, want %v", i, f, rec.Values[i][f], v)
			}
		}
	}
	// Every record owns its rows: none aliases another's storage.
	first, _ := e.stage.Log(0).Get(index - 2)
	if &first.Values[0][0] == &rec.Values[0][0] || &first.Indices[0] == &rec.Indices[0] {
		t.Fatal("staged records share decode storage")
	}
}

// TestMAEApplyAllocationFree checks the mae KPI's steady-state fold: once
// the sensor's entry exists and the rolling window is full, scoring a
// record allocates nothing.
func TestMAEApplyAllocationFree(t *testing.T) {
	k := newMAEKPI(Config{T: testT, D: testD}.withDefaults())
	rec := feedRecord(0, 1)
	for i := 0; i < k.window; i++ {
		k.apply(0, rec)
	}
	if n := testing.AllocsPerRun(100, func() { k.apply(0, rec) }); n != 0 {
		t.Errorf("mae apply allocs/record = %v, want 0", n)
	}
	if k.state.ReconErrors != 0 {
		t.Fatalf("%d reconstruction errors", k.state.ReconErrors)
	}
}

// stageFrameFixture returns a stopped engine with an AGE decoder and one
// encoded payload: only the tap runs, so its allocations are all counted.
func stageFrameFixture(t testing.TB) (*Engine, []byte) {
	cfg := testCodecConfig()
	cfg.TargetBytes = core.TargetBytesForRate(0.5, testT, testD, cfg.Format.Width)
	codec, err := core.NewAGE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := codec.Encode(frameBatch(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{T: testT, D: testD, Decode: codec, Now: func() int64 { return 5e9 }})
	e.Close()
	return e, payload
}

// TestStageFrameAllocsAmortized gates the tap's steady state: the staged
// copy is carved from segment arenas, so a segment's worth of frames costs
// a handful of allocations and 256 frames (4 segments) average at most
// 0.25 per frame. testing.AllocsPerRun rounds down to whole allocations,
// so the count comes from the runtime's malloc counter. GC is off so a
// collection cannot empty the decode pool.
func TestStageFrameAllocsAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e, payload := stageFrameFixture(t)
	e.StageFrame(0, 0, payload) // creates the sensor's log and tap entry
	const frames = 4 * 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= frames; i++ {
		e.StageFrame(0, i, payload)
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / frames
	t.Logf("StageFrame allocs/frame = %.3f over %d frames", perFrame, frames)
	if perFrame > 0.25 {
		t.Errorf("StageFrame allocs/frame = %.3f, want <= 0.25", perFrame)
	}
	if n := e.Snapshot().DecodeErrors; n != 0 {
		t.Fatalf("%d decode errors", n)
	}
}

func BenchmarkStageFrame(b *testing.B) {
	e, payload := stageFrameFixture(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.StageFrame(0, i, payload)
		// Trim as the stopped workers would once all had folded the frame.
		if i%64 == 63 {
			e.stage.TrimBelow(0, i)
		}
	}
}
