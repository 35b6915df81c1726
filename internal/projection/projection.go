// Package projection implements the consumption tier of the streaming
// pipeline (decode → stage → project): an Engine taps the ingest server's
// delivery path (it implements ingest.Stager structurally, so ingest never
// imports this package), decodes each delivered frame into a
// staging.Record, and runs independent projection workers that fold the
// staged logs into live windowed KPIs:
//
//   - mae: rolling reconstruction error — each staged batch's linear
//     reconstruction is scored against the harness-supplied ground truth
//     by reconstruct.LinearMAEStdDev, which also returns the truth's
//     standard deviation, in one walk and without materializing the
//     reconstruction (plain and deviation-weighted MAE, mirroring the
//     offline reconstruct.Accumulator, plus a rolling window mean).
//   - events: label-based detections and per-sensor label transitions,
//     plus a threshold detector over the decoded measurements.
//   - privacy: the live leakage monitor — Shannon entropy of the
//     observed message sizes, NMI between sizes and event labels
//     (stats.EntropyCounts / stats.NMICounts over count tables, so the
//     figures are independent of cross-sensor arrival interleaving), and
//     per-sensor arrival age (inter-arrival mean/max and staleness).
//
// The mae and events workers are per-sensor and read each log to its
// head. The privacy worker correlates across sensors, so it reads only
// below the stage's visibility watermark (MIN over incomplete logs of the
// head) — a quiesced snapshot is then a pure function of the per-sensor
// streams, not of how their arrivals interleaved.
//
// # Sequence = index invariant
//
// The tap stages every delivered frame exactly once (replays after a
// server-side eviction are deduplicated by a per-sensor next-index
// cursor), and frames that fail to unseal or decode are staged as empty
// records rather than skipped. A sensor's staged sequence numbers
// therefore equal its frame indices, which is what makes checkpoints
// refeedable: Restore rebuilds the stage at each sensor's lowest worker
// cursor, and feeding the frames from that index onward reproduces the
// engine's state (workers skip what their checkpointed cursors already
// cover).
package projection

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/staging"
)

// Config parameterizes an Engine.
type Config struct {
	// T and D are the batch geometry used for reconstruction.
	T, D int

	// Open, when set, unseals the wire payload (e.g. a seccomm
	// Sealer.Open) before unmarking/decoding. Nil means plaintext frames.
	Open func(msg []byte) ([]byte, error)
	// Unmark strips the pacer's in-payload real/dummy marker before
	// decoding. The server never stages dummies, so an Unmark here only
	// ever sees real frames.
	Unmark bool
	// Decode turns a plaintext payload into a batch. Nil disables the
	// batch-level KPIs (mae, threshold events); size/arrival KPIs still
	// run.
	Decode core.Decoder
	// Truth supplies ground truth for frame index of a sensor: the full
	// T×D window (nil when unknown — the mae KPI skips the record) and
	// the window's event label (-1 when unknown). Harnesses that know
	// the generative process wire this; production leaves it nil.
	Truth func(sensorID, index int) (truth [][]float64, label int, ok bool)

	// Window is the rolling-MAE window length (default 64).
	Window int
	// EventThreshold fires the threshold detector when any decoded
	// measurement's absolute value reaches it (0 disables).
	EventThreshold float64
	// SizeBucket coarsens wire sizes for the entropy/NMI tables (bytes
	// per bucket, default 1 = exact sizes).
	SizeBucket int

	// Retain is how many staged records per sensor survive trimming
	// below the slowest worker's cursor (default 256).
	Retain int

	// CheckpointEvery emits a checkpoint to CheckpointSink every N
	// staged records (0 disables).
	CheckpointEvery int
	CheckpointSink  func(Checkpoint)

	// Now supplies the arrival clock (UnixNano); defaults to time.Now.
	// Tests inject a fixed clock to make arrival KPIs deterministic.
	Now func() int64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.SizeBucket <= 0 {
		c.SizeBucket = 1
	}
	if c.Retain <= 0 {
		c.Retain = 256
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

// Engine is the projection pipeline: the ingest tap, the staged logs, and
// the KPI workers. Create with New (or Restore), attach as
// ingest.ServerConfig.Stager, and Close after the server has drained.
type Engine struct {
	cfg   Config
	stage *staging.Stage

	mu        sync.Mutex
	nextIndex map[int]int  // per-sensor dedupe cursor (tap side)
	assigned  map[int]int  // per-sensor Total from the latest Admit
	staged    atomic.Int64 // records appended
	decodeErr atomic.Int64 // frames that failed to open/unmark/decode
	lastCp    atomic.Int64 // staged count at the last periodic checkpoint

	workers []*worker
	closing chan struct{}
	wg      sync.WaitGroup
}

var _ ingest.Stager = (*Engine)(nil)

// New builds an Engine and starts its workers.
func New(cfg Config) *Engine {
	return newEngine(cfg.withDefaults(), staging.New(), Checkpoint{})
}

// newEngine starts an Engine over stage, restoring each worker from cp and
// counting every record below a sensor's Resume as already staged.
func newEngine(cfg Config, stage *staging.Stage, cp Checkpoint) *Engine {
	e := &Engine{
		cfg:       cfg,
		stage:     stage,
		nextIndex: map[int]int{},
		assigned:  map[int]int{},
		closing:   make(chan struct{}),
	}
	var resumed int64
	for _, s := range cp.Sensors {
		resumed += int64(s.Resume)
	}
	e.staged.Store(resumed)
	e.lastCp.Store(resumed)
	ids, logs := stage.Logs()
	for i, l := range logs {
		e.nextIndex[ids[i]] = l.Head()
	}
	e.workers = []*worker{
		newWorker("mae", false, newMAEKPI(cfg)),
		newWorker("events", false, newEventKPI(cfg)),
		newWorker("privacy", true, newPrivacyKPI(cfg)),
	}
	for _, w := range e.workers {
		if wc, ok := cp.Workers[w.name]; ok {
			w.restore(wc)
		}
		e.wg.Add(1)
		go e.runWorker(w)
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil {
		e.wg.Add(1)
		go e.runCheckpointer()
	}
	return e
}

// Admit implements ingest.Stager: a session was accepted for the sensor.
func (e *Engine) Admit(sensorID, resume, total int) {
	e.mu.Lock()
	e.assigned[sensorID] = total
	e.mu.Unlock()
	// A sensor that completed, was evicted server-side, and reconnected
	// streams again from 0; its log must pin the watermark once more.
	e.stage.Reopen(sensorID)
}

// StageFrame implements ingest.Stager: decode the delivered frame and
// append it to the sensor's staged log. Replayed indices (resume after a
// server-side eviction) are dropped so each frame stages exactly once.
func (e *Engine) StageFrame(sensorID, index int, msg []byte) {
	e.mu.Lock()
	next := e.nextIndex[sensorID]
	if index < next {
		e.mu.Unlock()
		return
	}
	e.nextIndex[sensorID] = index + 1
	e.mu.Unlock()

	rec := staging.Record{
		Index:        index,
		WireBytes:    len(msg),
		Label:        -1,
		RecvUnixNano: e.cfg.Now(),
	}
	scratch := decodeScratch.Get().(*core.Batch)
	if batch, err := e.decode(scratch, msg); err != nil {
		e.decodeErr.Add(1)
	} else {
		// An empty batch stages without indices, which the mae KPI skips.
		if len(batch.Indices) > 0 {
			rec.Indices = batch.Indices
		}
		rec.Values = batch.Values
	}
	if e.cfg.Truth != nil {
		if truth, label, ok := e.cfg.Truth(sensorID, index); ok {
			rec.Truth = truth
			rec.Label = label
		}
	}
	// Append copies the batch into the stage's own storage, so the
	// scratch goes back to the pool straight after.
	e.stage.Append(sensorID, rec)
	decodeScratch.Put(scratch)
	e.staged.Add(1)
}

// decode runs the open → unmark → decode chain on one wire payload. An
// IntoDecoder decodes into scratch. The result may alias scratch or the
// decoder's own storage, so the caller copies it (Append does) before it
// returns scratch to the pool.
func (e *Engine) decode(scratch *core.Batch, msg []byte) (core.Batch, error) {
	payload := msg
	if e.cfg.Open != nil {
		var err error
		if payload, err = e.cfg.Open(payload); err != nil {
			return core.Batch{}, err
		}
	}
	if e.cfg.Unmark {
		data, dummy, err := ingest.Unmark(payload)
		if err != nil {
			return core.Batch{}, err
		}
		if dummy {
			return core.Batch{}, fmt.Errorf("projection: dummy frame reached the stage")
		}
		payload = data
	}
	if e.cfg.Decode == nil {
		return core.Batch{}, nil
	}
	if into, ok := e.cfg.Decode.(core.IntoDecoder); ok {
		if err := into.DecodeInto(scratch, payload); err != nil {
			return core.Batch{}, err
		}
		return *scratch, nil
	}
	return e.cfg.Decode.Decode(payload)
}

// decodeScratch holds the batches IntoDecoder configs decode into; the
// stage copies each one before it goes back.
var decodeScratch = sync.Pool{New: func() any { return new(core.Batch) }}

// SessionEnd implements ingest.Stager: the connection retired. A
// completed stream releases the sensor from the visibility watermark.
func (e *Engine) SessionEnd(sensorID int, completed bool) {
	if completed {
		e.stage.Complete(sensorID)
	}
}

// ExportCursor removes and returns the sensor's staged coordinate for
// migration to another node's engine (the cluster gateway's CursorStore
// hook). The tap's dedupe cursor goes with it: the sensor's frames now
// stage elsewhere.
func (e *Engine) ExportCursor(sensorID int) (staging.Cursor, bool) {
	e.mu.Lock()
	delete(e.nextIndex, sensorID)
	delete(e.assigned, sensorID)
	e.mu.Unlock()
	return e.stage.ExportCursor(sensorID)
}

// ImportCursor seeds the sensor's staged log from a migrated cursor; see
// staging.Stage.ImportCursor for the merge rules.
func (e *Engine) ImportCursor(c staging.Cursor) {
	e.stage.ImportCursor(c)
}

// Close drains the workers — every staged record is projected — and
// stops them. Call after the ingest server has drained, so no more
// StageFrame calls arrive; the snapshot taken after Close is then a pure
// function of the delivered streams.
func (e *Engine) Close() {
	close(e.closing)
	e.wg.Wait()
}

// runWorker is each projection worker's loop: drain what is visible,
// then block on the stage's signal. On Close it performs a final drain
// so nothing staged is left unprojected.
func (e *Engine) runWorker(w *worker) {
	defer e.wg.Done()
	ch := e.stage.Subscribe()
	for {
		if e.drainOnce(w) {
			continue
		}
		select {
		case <-ch:
		case <-e.closing:
			for e.drainOnce(w) {
			}
			return
		}
	}
}

// drainOnce advances the worker's cursors to its visibility bound on
// every sensor, reporting whether any record was processed. After
// progress it trims staged storage the slowest worker no longer needs.
func (e *Engine) drainOnce(w *worker) bool {
	bound := -1
	if w.watermark {
		bound = e.stage.Watermark()
	}
	w.moved = w.moved[:0]
	ids, logs := e.stage.Logs()
	for i, l := range logs {
		id := ids[i]
		limit := l.Head()
		if bound >= 0 && bound < limit {
			limit = bound
		}
		cur := w.cursor(id)
		if cur >= limit {
			continue
		}
		for ; cur < limit; cur++ {
			rec, ok := l.Get(cur)
			if !ok {
				// Everything below the trim point is gone: step over it in
				// one fold, not one miss at a time (a restored log is
				// trimmed up to its head).
				cur = max(cur, min(l.Trimmed(), limit)-1)
			}
			w.fold(id, cur, rec, ok)
		}
		w.moved = append(w.moved, id)
	}
	e.trim(w.moved)
	return len(w.moved) > 0
}

// trim releases staged storage below the slowest worker on each of the
// given sensors, keeping cfg.Retain records for late observers. Only
// sensors where some cursor just moved need it: the slowest cursor cannot
// move anywhere else.
func (e *Engine) trim(ids []int) {
	for _, id := range ids {
		min := -1
		for _, w := range e.workers {
			c := w.cursor(id)
			if min < 0 || c < min {
				min = c
			}
		}
		if min > 0 {
			e.stage.TrimBelow(id, min, e.cfg.Retain)
		}
	}
}

// runCheckpointer emits a checkpoint every CheckpointEvery staged
// records.
func (e *Engine) runCheckpointer() {
	defer e.wg.Done()
	ch := e.stage.Subscribe()
	for {
		// Check before blocking: records staged before the subscription
		// took effect would otherwise never trigger a signal.
		n := e.staged.Load()
		if n-e.lastCp.Load() >= int64(e.cfg.CheckpointEvery) {
			e.lastCp.Store(n)
			e.cfg.CheckpointSink(e.Checkpoint())
			continue
		}
		select {
		case <-ch:
		case <-e.closing:
			return
		}
	}
}

// Checkpoint captures the engine's durable state: each worker's cursors
// and aggregates, and per-sensor completion flags. The stage's restart
// coordinate for a sensor is the minimum worker cursor — everything below
// it is fully projected, everything at or above it will be refed.
type Checkpoint struct {
	Sensors map[int]SensorCheckpoint    `json:"sensors"`
	Workers map[string]WorkerCheckpoint `json:"workers"`
}

// SensorCheckpoint is one sensor's restart coordinate.
type SensorCheckpoint struct {
	Resume   int  `json:"resume"` // min worker cursor = first unprojected frame
	Complete bool `json:"complete"`
}

// WorkerCheckpoint is one worker's cursors plus its KPI aggregate state.
type WorkerCheckpoint struct {
	Cursors map[int]int     `json:"cursors"`
	State   json.RawMessage `json:"state"`
}

// Checkpoint snapshots the restartable state. Safe to call concurrently
// with staging and projection; each worker's (cursors, state) pair is
// captured atomically, which is all refeed consistency needs.
func (e *Engine) Checkpoint() Checkpoint {
	cp := Checkpoint{
		Sensors: map[int]SensorCheckpoint{},
		Workers: map[string]WorkerCheckpoint{},
	}
	for _, w := range e.workers {
		cp.Workers[w.name] = w.checkpoint()
	}
	stageCp := e.stage.Checkpoint()
	for id, lc := range stageCp.Sensors {
		min := -1
		for _, w := range e.workers {
			c := cp.Workers[w.name].Cursors[id]
			if min < 0 || c < min {
				min = c
			}
		}
		if min < 0 {
			min = 0
		}
		cp.Sensors[id] = SensorCheckpoint{Resume: min, Complete: lc.Complete}
	}
	return cp
}

// Restore rebuilds an Engine from a checkpoint. Each sensor's staged log
// resumes at its Resume coordinate; feeding the sensor's frames from that
// index onward (via StageFrame or Feed) reproduces the pre-checkpoint
// engine — workers skip the prefix their checkpointed cursors already
// cover, and the staged count starts at the sum of the Resume coordinates
// so StagedRecords matches an uninterrupted run.
func Restore(cfg Config, cp Checkpoint) *Engine {
	sc := staging.Checkpoint{Sensors: map[int]staging.LogCheckpoint{}}
	for id, s := range cp.Sensors {
		sc.Sensors[id] = staging.LogCheckpoint{Head: s.Resume, Complete: s.Complete}
	}
	return newEngine(cfg.withDefaults(), staging.Restore(sc), cp)
}

// Feed stages one frame directly, bypassing the ingest tap — the refeed
// path for tests and offline replay. Unlike StageFrame the payload is
// already plaintext and undecoded work is skipped.
func (e *Engine) Feed(sensorID int, rec staging.Record) {
	e.mu.Lock()
	next := e.nextIndex[sensorID]
	if rec.Index < next {
		e.mu.Unlock()
		return
	}
	e.nextIndex[sensorID] = rec.Index + 1
	e.mu.Unlock()
	e.stage.Append(sensorID, rec)
	e.staged.Add(1)
}

// CompleteSensor marks a directly-fed sensor's stream finished.
func (e *Engine) CompleteSensor(sensorID int) { e.stage.Complete(sensorID) }

// Snapshot is the queryable state of every projection, JSON-shaped for
// the HTTP endpoint and the ageload report.
type Snapshot struct {
	Sensors       int   `json:"sensors"`
	StagedRecords int64 `json:"staged_records"`
	DecodeErrors  int64 `json:"decode_errors"`
	Watermark     int   `json:"watermark"`

	// Coverage relates staged records to the fleet's assigned frames.
	AssignedFrames int64   `json:"assigned_frames"`
	CoveragePct    float64 `json:"coverage_pct"`

	MAE     MAESnapshot     `json:"mae"`
	Events  EventSnapshot   `json:"events"`
	Privacy PrivacySnapshot `json:"privacy"`
}

// Snapshot captures the current state of every projection. Figures are
// exact after Close (or any quiescent moment); mid-stream they trail the
// tap by whatever is staged but not yet projected.
func (e *Engine) Snapshot() Snapshot {
	snap := Snapshot{
		StagedRecords: e.staged.Load(),
		DecodeErrors:  e.decodeErr.Load(),
		Watermark:     e.stage.Watermark(),
	}
	snap.Sensors = len(e.stage.Sensors())
	e.mu.Lock()
	for _, total := range e.assigned {
		snap.AssignedFrames += int64(total)
	}
	e.mu.Unlock()
	if snap.AssignedFrames > 0 {
		snap.CoveragePct = 100 * float64(snap.StagedRecords) / float64(snap.AssignedFrames)
	}
	for _, w := range e.workers {
		w.mu.Lock()
		switch k := w.kpi.(type) {
		case *maeKPI:
			snap.MAE = k.snapshot()
		case *eventKPI:
			snap.Events = k.snapshot()
		case *privacyKPI:
			snap.Privacy = k.snapshot(e.cfg.Now())
		}
		w.mu.Unlock()
	}
	return snap
}

// Handler serves the engine's snapshot as JSON — mounted next to /metrics
// via metrics.Registry.ListenAndServeWith.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.Snapshot())
	})
}

// worker binds one KPI to its cursors and visibility rule.
type worker struct {
	name      string
	watermark bool // bound reads by the stage watermark

	mu      sync.Mutex
	cursors map[int]int
	kpi     kpi

	moved []int // sensors the last drain advanced; drain goroutine only
}

// kpi folds records into an aggregate and serializes it for checkpoints.
type kpi interface {
	apply(sensorID int, rec staging.Record)
	marshal() json.RawMessage
	unmarshal(json.RawMessage)
}

func newWorker(name string, watermark bool, k kpi) *worker {
	return &worker{name: name, watermark: watermark, cursors: map[int]int{}, kpi: k}
}

func (w *worker) cursor(id int) int {
	w.mu.Lock()
	c := w.cursors[id]
	w.mu.Unlock()
	return c
}

// fold applies the record at cursor cur, when the log still held it (ok),
// and advances the cursor past it under one lock hold: a checkpoint sees
// both or neither, so a restore never folds the record twice. A trimmed
// record is unrecoverable; the cursor advances anyway so the worker cannot
// spin.
func (w *worker) fold(id, cur int, rec staging.Record, ok bool) {
	w.mu.Lock()
	if ok {
		w.kpi.apply(id, rec)
	}
	w.cursors[id] = cur + 1
	w.mu.Unlock()
}

func (w *worker) checkpoint() WorkerCheckpoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	cp := WorkerCheckpoint{Cursors: make(map[int]int, len(w.cursors)), State: w.kpi.marshal()}
	for id, c := range w.cursors {
		cp.Cursors[id] = c
	}
	return cp
}

func (w *worker) restore(cp WorkerCheckpoint) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, c := range cp.Cursors {
		w.cursors[id] = c
	}
	if len(cp.State) > 0 {
		w.kpi.unmarshal(cp.State)
	}
}

// sortedIDs returns m's keys in ascending order (deterministic snapshots).
func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
