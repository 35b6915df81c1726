package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/projection"
	"repro/internal/seccomm"
)

// Stream geometry: 256 sensors, each one long session.
const (
	streamSensors = 256
	streamFrames  = 1024
	// frameSample is the per-frame span sampling interval.
	frameSample = 64
)

// stageTap wraps the projection engine as the server's Stager, and its
// Open and Decode hooks, to clock each layer in traced passes. Per-frame
// sums cover every frame; spans cover one frame in frameSample.
type stageTap struct {
	eng     *projection.Engine
	opener  seccomm.Sealer
	dec     core.Decoder
	tr      *tracer
	session []atomic.Int32 // per-sensor ingest.session span id

	stageNs, stageN   atomic.Int64
	openNs, openN     atomic.Int64
	decodeNs, decodeN atomic.Int64

	// inflight maps the buffer a sampled frame's Open or Decode will see
	// to that frame's span, so the hook's span gets its parent.
	mu       sync.Mutex
	inflight map[uintptr][2]int32 // buffer -> {span, session}
	nflight  atomic.Int32
}

func bufKey(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

func (t *stageTap) put(b []byte, span, session int32) {
	t.mu.Lock()
	t.inflight[bufKey(b)] = [2]int32{span, session}
	t.nflight.Store(int32(len(t.inflight)))
	t.mu.Unlock()
}

func (t *stageTap) take(b []byte) ([2]int32, bool) {
	if t.nflight.Load() == 0 {
		return [2]int32{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.inflight[bufKey(b)]
	if ok {
		delete(t.inflight, bufKey(b))
		t.nflight.Store(int32(len(t.inflight)))
	}
	return v, ok
}

func (t *stageTap) Admit(sensor, resume, total int) { t.eng.Admit(sensor, resume, total) }
func (t *stageTap) SessionEnd(sensor int, completed bool) {
	t.eng.SessionEnd(sensor, completed)
}

func (t *stageTap) StageFrame(sensor, index int, msg []byte) {
	t0 := time.Now()
	id := int32(-1)
	if index%frameSample == 0 {
		sess := int32(sensor)
		id = t.tr.begin("projection.stage", t.session[sensor].Load(), sess, t0)
		t.put(msg, id, sess)
	}
	t.eng.StageFrame(sensor, index, msg)
	t1 := time.Now()
	t.stageNs.Add(int64(t1.Sub(t0)))
	t.stageN.Add(1)
	if id >= 0 {
		t.tr.end(id, t1)
		t.take(msg)
	}
}

func (t *stageTap) open(msg []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := t.opener.Open(msg)
	t1 := time.Now()
	t.openNs.Add(int64(t1.Sub(t0)))
	t.openN.Add(1)
	if p, ok := t.take(msg); ok {
		t.tr.add("seccomm.open", p[0], p[1], t0, t1)
		if err == nil {
			t.put(out, p[0], p[1])
		}
	}
	return out, err
}

// Decode implements core.Decoder.
func (t *stageTap) Decode(payload []byte) (core.Batch, error) {
	t0 := time.Now()
	b, err := t.dec.Decode(payload)
	t1 := time.Now()
	t.decodeNs.Add(int64(t1.Sub(t0)))
	t.decodeN.Add(1)
	if p, ok := t.take(payload); ok {
		t.tr.add("core.decode", p[0], p[1], t0, t1)
	}
	return b, err
}

// streamPass is one replay of the whole recording into a fresh server
// and projection engine.
type streamPass struct {
	replayPass
	closeDur time.Duration
	foldLag  int64
	privacy  projection.PrivacySnapshot
	tap      *stageTap
}

func streamReplay(rec *recording, oracle maeOracle, tr *tracer, led *ingestLedger) (*streamPass, error) {
	_, dec, err := newCodec(rec.cfg.Encoder)
	if err != nil {
		return nil, err
	}
	opener, err := seccomm.NewSealer(seccomm.ChaCha20Stream, rec.key)
	if err != nil {
		return nil, err
	}
	traced := tr != nil
	p := &streamPass{replayPass: replayPass{reg: metrics.NewRegistry()}}
	heap0 := liveHeapBytes()
	h := newFrameHandler(rec, 1, traced)

	t0 := time.Now()
	pcfg := projection.Config{T: winT, D: winD, Open: opener.Open, Decode: dec, Truth: rec.truthOf}
	var stager ingest.Stager
	var eng *projection.Engine
	if traced {
		tap := &stageTap{opener: opener, dec: dec, tr: tr, inflight: map[uintptr][2]int32{},
			session: make([]atomic.Int32, rec.cfg.Sensors)}
		pcfg.Open, pcfg.Decode = tap.open, tap
		eng = projection.New(pcfg)
		tap.eng = eng
		stager, p.tap = tap, tap
	} else {
		eng = projection.New(pcfg)
		stager = eng
	}
	srv, err := ingest.NewServer(ingest.ServerConfig{
		Handler:   h.handler(),
		IOTimeout: 10 * time.Second,
		Metrics:   p.reg,
		Stager:    stager,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		eng.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	addr := srv.Addr().String()
	p.startDur = time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			p.foldLag = pollFoldLag(eng, stopPoll)
		}()
	}

	rt0, cpu0 := readRuntime(), cpuTime()
	ck := startClock()
	p.lanes = runLanes(lanes, func(lane int, res *laneResult) {
		for s := lane; s < rec.cfg.Sensors; s += lanes {
			if traced {
				p.tap.session[s].Store(tr.begin("ingest.session", -1, int32(s), time.Now()))
			}
			err := connect(ctx, addr, &arenaSource{rec: rec, sensor: s}, h, s, res)
			if traced {
				tr.end(p.tap.session[s].Load(), time.Now())
			}
			if err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("sensor %d: %w", s, err)
				}
			}
		}
	})
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer drainCancel()
	drainErr := srv.Drain(drainCtx)
	if drainErr != nil {
		srv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, ingest.ErrClosed) && drainErr == nil {
		drainErr = err
	}
	c0 := time.Now()
	eng.Close()
	p.closeDur = time.Since(c0)
	p.wall, p.unstolen = ck.stop()
	p.cpu = cpuTime() - cpu0
	p.rt = runtimeDelta(rt0, readRuntime())
	close(stopPoll)
	pollWG.Wait()
	p.delivered = h.delivered.Load()
	p.badFrames = h.ver.bad()
	p.resumed = h.resumed.Load()
	p.heapBytes = heapGrowth(heap0)
	runtime.KeepAlive(srv) // the server's state counts until teardown
	if traced {
		led.addPass(tr, h.stamps, 1, func(slot int) int32 { return p.tap.session[slot].Load() })
	}

	p.check("stream.sessions_completed", p.lanes.firstErr)
	p.check("stream.drain", drainErr)
	p.check("stream.frames_once_byte_equal", h.ver.err())
	snap := eng.Snapshot()
	p.privacy = snap.Privacy
	p.check("projection.staged_equals_delivered", stagedErr(snap, p.delivered))
	p.check("projection.all_folded", foldedErr(snap.StagedRecords, eng.Checkpoint()))
	p.check("privacy.one_size_zero_nmi", privacyErr(snap.Privacy))
	p.check("projection.mae_matches_oracle", maeErr(snap.MAE, oracle))
	return p, nil
}

func (p *streamPass) check(name string, err error) {
	p.checks = append(p.checks, check{Name: name, Err: err})
}

// pollFoldLag samples, until stop closes, how far the slowest projection
// worker trails the stage.
func pollFoldLag(eng *projection.Engine, stop <-chan struct{}) int64 {
	var worst int64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return worst
		case <-tick.C:
		}
		s := eng.Snapshot()
		folded := s.MAE.Count + s.MAE.ReconErrors
		if s.Events.Records < folded {
			folded = s.Events.Records
		}
		if s.Privacy.Records < folded {
			folded = s.Privacy.Records
		}
		if lag := s.StagedRecords - folded; lag > worst {
			worst = lag
		}
	}
}

func stagedErr(s projection.Snapshot, delivered int64) error {
	if s.StagedRecords != delivered || s.DecodeErrors != 0 || s.CoveragePct != 100 {
		return fmt.Errorf("staged %d of %d delivered, coverage %.3f%%, %d decode errors",
			s.StagedRecords, delivered, s.CoveragePct, s.DecodeErrors)
	}
	return nil
}

// foldedErr checks that every worker's cursors cover every staged record.
func foldedErr(staged int64, cp projection.Checkpoint) error {
	for _, name := range sortedKeys(cp.Workers) {
		var n int64
		for _, c := range cp.Workers[name].Cursors {
			n += int64(c)
		}
		if n != staged {
			return fmt.Errorf("worker %s folded %d of %d staged records", name, n, staged)
		}
	}
	if len(cp.Workers) != 3 {
		return fmt.Errorf("%d projection workers, want 3", len(cp.Workers))
	}
	return nil
}

// privacyErr is the paper's property, re-checked on every run: one wire
// size, so sizes carry zero information about the event label.
func privacyErr(p projection.PrivacySnapshot) error {
	if p.DistinctSizes != 1 || p.NMI != 0 || p.Records == 0 {
		return fmt.Errorf("%d distinct wire sizes, size/label NMI %.6f over %d records", p.DistinctSizes, p.NMI, p.Records)
	}
	return nil
}

func maeErr(m projection.MAESnapshot, want maeOracle) error {
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if m.Count != want.Count || m.ReconErrors != 0 || !close(m.MeanMAE, want.MeanMAE) || !close(m.WeightedMAE, want.WeightedMAE) {
		return fmt.Errorf("mae count %d mean %.12g weighted %.12g; offline %d %.12g %.12g",
			m.Count, m.MeanMAE, m.WeightedMAE, want.Count, want.MeanMAE, want.WeightedMAE)
	}
	return nil
}

func runStream(o options) (*outcome, error) {
	cfg := genConfig{
		Seed:    o.seed,
		Sensors: o.size(streamSensors, o.sensors),
		Frames:  o.size(streamFrames, o.frames),
		Encoder: o.encoder,
	}
	out := &outcome{json: map[string]float64{}}

	// Sensor phase: sample, encode and seal every frame the replay sends.
	rec := newRecording(cfg)
	sensor, err := rec.record(o.trace)
	if err != nil {
		return nil, err
	}
	sum := rec.digest()
	out.note("inputs: %d sensors x %d frames, %d arena bytes, sha256 %x", cfg.Sensors, cfg.Frames, len(rec.arena), sum[:8])

	// Set-up: the offline expectation the replay is checked against.
	var oracle maeOracle
	setups, err := medianSetup(3, func() (err error) {
		oracle, err = rec.oracle()
		return err
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	led := newLedger()
	led.encodeNs, led.sealNs, led.sensorFrames = sensor.EncodeNs, sensor.SealNs, int64(sensor.Frames)
	run := &replayRun{out: out, led: led, sensors: int64(cfg.Sensors), frames: int64(rec.totalFrames())}
	base := runtime.NumGoroutine()
	n, err := repeatPasses(o.budget, 4, func(i int) error {
		var ptr *tracer
		if tracedPass(o.trace, i) {
			ptr = tr
		}
		settle(base)
		p, err := streamReplay(rec, oracle, ptr, &led.ingest)
		if err != nil {
			return err
		}
		if run.add(i, &p.replayPass, ptr != nil) {
			led.addTap(p.tap)
			if p.foldLag > led.foldLagMax {
				led.foldLagMax = p.foldLag
			}
			led.closeMs = append(led.closeMs, float64(p.closeDur)/1e6)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.checks = mergeChecks(out.checks)
	out.note("passes: %d including the warm-up, %d frames each", n, rec.totalFrames())
	if o.trace {
		led.report(out)
		out.spans = tr.snapshot()
		return out, nil
	}
	run.report(setups)
	out.add("sensor_frames_per_s", "frames/s", float64(sensor.Frames)/sensor.Wall.Seconds(), sensor.Frames)
	return out, nil
}

// mergeChecks folds repeated checks (one per pass) into one verdict each,
// keeping the first failure.
func mergeChecks(cs []check) []check {
	idx := map[string]int{}
	var out []check
	for _, c := range cs {
		i, ok := idx[c.Name]
		if !ok {
			idx[c.Name] = len(out)
			out = append(out, c)
			continue
		}
		if out[i].Err == nil {
			out[i].Err = c.Err
		}
	}
	return out
}

// addSessionTail reports session latency as a median and p99, falling
// back to the highest percentile with at least ten samples beyond it
// when there are too few sessions for p99; the note gives the highest
// qualifying percentile.
func addSessionTail(out *outcome, ms []float64) {
	out.add("session_p50_ms", "ms", median(ms), len(ms))
	q := tailQuantile(len(ms))
	if q == 0 {
		q = 0.5
	}
	out.note("session tail: p%g %.4f ms over %d sessions", 100*q, quantile(ms, q), len(ms))
	if q > 0.99 {
		q = 0.99
	}
	out.add("session_p99_ms", "ms", quantile(ms, q), len(ms))
}
