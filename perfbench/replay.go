package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/metrics"
)

// arenaSource replays one sensor's recorded frames to ingest.Client. With
// pauseAfter > 0 the first connection ends after that many frames, as a
// duty-cycled sensor going back to sleep; the next Run resumes.
type arenaSource struct {
	rec        *recording
	sensor     int
	next       int
	pauseAfter int
	sent       int
}

var errPause = errors.New("duty cycle: sleep until the next connection")

func (s *arenaSource) Total() int { return s.rec.cfg.Frames }

func (s *arenaSource) Seek(resume int) error {
	s.next, s.sent = resume, 0
	return nil
}

func (s *arenaSource) Next(ctx context.Context) ([]byte, error) {
	if s.pauseAfter > 0 && s.next == s.pauseAfter && s.sent > 0 {
		return nil, ingest.Terminal(errPause)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	msg := s.rec.frame(s.sensor, s.next)
	s.next++
	s.sent++
	return msg, nil
}

// verifier checks delivered frames byte-for-byte against the recording
// and records which (sensor, index) pairs arrived, in a bitset whose
// words are sharded over a fixed set of locks.
type verifier struct {
	rec        *recording
	locks      [64]sync.Mutex
	seen       []uint64
	mismatched atomic.Int64
	duplicates atomic.Int64
}

func newVerifier(rec *recording) *verifier {
	return &verifier{rec: rec, seen: make([]uint64, (rec.totalFrames()+63)/64)}
}

func (v *verifier) record(sensor, index int, msg []byte) {
	if sensor < 0 || sensor >= v.rec.cfg.Sensors || index < 0 || index >= v.rec.cfg.Frames ||
		string(msg) != string(v.rec.frame(sensor, index)) {
		v.mismatched.Add(1)
		return
	}
	i := sensor*v.rec.cfg.Frames + index
	w, bit := i/64, uint64(1)<<uint(i%64)
	mu := &v.locks[w%len(v.locks)]
	mu.Lock()
	dup := v.seen[w]&bit != 0
	v.seen[w] |= bit
	mu.Unlock()
	if dup {
		v.duplicates.Add(1)
	}
}

// bad counts frames missing, mismatched or delivered twice.
func (v *verifier) bad() int64 {
	return v.missing() + v.mismatched.Load() + v.duplicates.Load()
}

// missing counts recorded frames never delivered; call after the pass.
func (v *verifier) missing() int64 {
	var n int64
	for i := 0; i < v.rec.totalFrames(); i++ {
		if v.seen[i/64]&(uint64(1)<<uint(i%64)) == 0 {
			n++
		}
	}
	return n
}

func (v *verifier) err() error {
	if m, mm, d := v.missing(), v.mismatched.Load(), v.duplicates.Load(); m+mm+d > 0 {
		return fmt.Errorf("%d missing, %d mismatched, %d duplicate frames", m, mm, d)
	}
	return nil
}

// connStamps are one connection's ingest boundaries (UnixNano, 0 = not
// reached), recorded in traced passes only.
type connStamps struct {
	runStart, open, first, last, closed, runEnd int64
}

// frameHandler is the node-side ingest.Handler: it verifies every frame
// against the recording and counts what final-acked sessions delivered.
type frameHandler struct {
	ver       *verifier
	frames    int
	conns     int          // connection slots per sensor
	stamps    []connStamps // nil when untraced
	delivered atomic.Int64 // frames of final-acked sessions
	resumed   atomic.Int64 // sessions opened with delivered > 0
}

func newFrameHandler(rec *recording, conns int, traced bool) *frameHandler {
	h := &frameHandler{ver: newVerifier(rec), frames: rec.cfg.Frames, conns: conns}
	if traced {
		h.stamps = make([]connStamps, rec.cfg.Sensors*conns)
	}
	return h
}

// slot is the stamp slot of a connection: its sensor and whether it is
// the first connection or a resumed one.
func (h *frameHandler) slot(sensor, delivered int) int {
	c := 0
	if delivered > 0 {
		c = h.conns - 1
	}
	return sensor*h.conns + c
}

func (h *frameHandler) handler() ingest.Handler {
	return ingest.HandlerFuncs{OpenFunc: h.open}
}

func (h *frameHandler) open(sensor, delivered int) (ingest.Session, error) {
	if delivered > 0 {
		h.resumed.Add(1)
	}
	s := &verifySession{h: h, sensor: sensor, slot: -1}
	if h.stamps != nil {
		s.slot = h.slot(sensor, delivered)
		h.stamps[s.slot].open = time.Now().UnixNano()
	}
	return s, nil
}

type verifySession struct {
	h      *frameHandler
	sensor int
	slot   int
}

func (s *verifySession) Total() int { return s.h.frames }

func (s *verifySession) Frame(index int, msg []byte) error {
	if s.slot >= 0 {
		st := &s.h.stamps[s.slot]
		now := time.Now().UnixNano()
		if st.first == 0 {
			st.first = now
		}
		st.last = now
	}
	s.h.ver.record(s.sensor, index, msg)
	return nil
}

func (s *verifySession) Close(err error) {
	if err != nil {
		return
	}
	if s.slot >= 0 {
		s.h.stamps[s.slot].closed = time.Now().UnixNano()
	}
	s.h.delivered.Add(int64(s.h.frames))
}

// ingestLedger turns a traced pass's connection stamps into session spans
// (with open-wait, frames and close-wait children) and the ingest.*
// per-connection means.
type ingestLedger struct {
	openWait, closeWait, framesSpan []float64 // microseconds
}

// rootOf, when set, names the session span the caller already recorded
// for a slot.
func (l *ingestLedger) addPass(tr *tracer, stamps []connStamps, conns int, rootOf func(slot int) int32) {
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	for i, st := range stamps {
		if st.runStart == 0 || st.runEnd == 0 {
			continue
		}
		sess := int32(i / conns)
		var root int32
		if rootOf != nil {
			root = rootOf(i)
		} else {
			root = tr.add("ingest.session", -1, sess, at(st.runStart), at(st.runEnd))
		}
		if st.open > 0 {
			l.openWait = append(l.openWait, float64(st.open-st.runStart)/1e3)
			tr.add("ingest.open_wait", root, sess, at(st.runStart), at(st.open))
		}
		if st.first > 0 {
			l.framesSpan = append(l.framesSpan, float64(st.last-st.first)/1e3)
			tr.add("ingest.frames", root, sess, at(st.first), at(st.last))
		}
		if st.closed > 0 {
			// A final ack can reach the client before the handler's
			// Close runs; that wait is zero, not negative.
			end := st.runEnd
			if end < st.closed {
				end = st.closed
			}
			l.closeWait = append(l.closeWait, float64(end-st.closed)/1e3)
			tr.add("ingest.close_wait", root, sess, at(st.closed), at(end))
		}
	}
}

func (l *ingestLedger) report(o *outcome) {
	o.add("ingest.open_wait_us", "us/op", mean(l.openWait), len(l.openWait))
	o.add("ingest.close_wait_us", "us/op", mean(l.closeWait), len(l.closeWait))
	o.add("ingest.frames_span_us", "us/op", mean(l.framesSpan), len(l.framesSpan))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// laneResult is what the lanes saw of one pass.
type laneResult struct {
	sessions  []float64 // ms per Client.Run
	failed    int64
	firstErr  error
	softRej   int64
	reconnect int64
}

func (r *laneResult) merge(o laneResult) {
	r.sessions = append(r.sessions, o.sessions...)
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.softRej += o.softRej
	r.reconnect += o.reconnect
}

// runLanes runs n closed-loop lanes, each calling work with its lane
// number, and merges what they saw.
func runLanes(n int, work func(lane int, res *laneResult)) laneResult {
	results := make([]laneResult, n)
	var wg sync.WaitGroup
	for l := 0; l < n; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			work(l, &results[l])
		}(l)
	}
	wg.Wait()
	var all laneResult
	for _, r := range results {
		all.merge(r)
	}
	return all
}

// connect runs one client connection for sensor and records its Run time
// and stamps. It returns Run's error.
func connect(ctx context.Context, addr string, src *arenaSource, h *frameHandler, slot int, res *laneResult) error {
	client := ingest.NewClient(ingest.ClientConfig{
		Addr:              addr,
		SensorID:          src.sensor,
		IOTimeout:         10 * time.Second,
		DialAttempts:      6,
		RejectAttempts:    64,
		ReconnectAttempts: 2,
		WriteBatch:        8,
	})
	t0 := time.Now()
	stats, err := client.Run(ctx, src)
	t1 := time.Now()
	if h.stamps != nil {
		h.stamps[slot].runStart = t0.UnixNano()
		h.stamps[slot].runEnd = t1.UnixNano()
	}
	res.softRej += int64(stats.SoftRejects)
	res.reconnect += int64(stats.Reconnects)
	res.sessions = append(res.sessions, float64(t1.Sub(t0))/1e6)
	return err
}

// replayPass is what one stream or gateway pass measured.
type replayPass struct {
	wall      time.Duration
	unstolen  time.Duration // wall less the hypervisor's steal
	cpu       time.Duration
	startDur  time.Duration // server or cluster start, before the clock
	delivered int64
	badFrames int64 // frames missing, mismatched or duplicated
	resumed   int64
	lanes     laneResult
	heapBytes uint64
	rt        rtDelta
	checks    []check
	reg       *metrics.Registry
}

// replayRun books a stream or gateway run's passes: pass 0 warms up and is
// only checked, then the traced run alternates untraced and traced passes
// so the tracing overhead is measured under the same conditions.
type replayRun struct {
	out                         *outcome
	led                         *ledger
	sensors, frames             int64
	fps, cpuUs, heap, startDurs []float64
	unstolenFPS                 []float64
	sessions                    []float64
}

// tracedPass reports whether pass i of a run is a traced pass.
func tracedPass(trace bool, i int) bool { return trace && i > 0 && i%2 == 0 }

// add books pass i and reports whether it was a measured traced pass.
func (r *replayRun) add(i int, p *replayPass, traced bool) bool {
	r.out.checks = append(r.out.checks, p.checks...)
	r.out.attempted += r.sensors + r.frames
	r.out.failed += p.lanes.failed + p.badFrames
	r.startDurs = append(r.startDurs, p.startDur.Seconds())
	if i == 0 {
		return false
	}
	rate := float64(p.delivered) / p.wall.Seconds()
	if !traced {
		r.led.untraced = append(r.led.untraced, rate)
		r.fps = append(r.fps, rate)
		r.unstolenFPS = append(r.unstolenFPS, float64(p.delivered)/p.unstolen.Seconds())
		r.cpuUs = append(r.cpuUs, float64(p.cpu.Microseconds())/float64(p.delivered))
		r.heap = append(r.heap, float64(p.heapBytes)/(1<<20))
		r.sessions = append(r.sessions, p.lanes.sessions...)
		return false
	}
	l := r.led
	l.traced = append(l.traced, rate)
	l.addCounters(p.reg)
	l.rt.add(p.rt)
	l.frames += p.delivered
	l.cpu += p.cpu
	l.softRej += p.lanes.softRej
	l.reconnects += p.lanes.reconnect
	l.resumed += p.resumed
	l.sensors += r.sensors
	return true
}

// report emits the run's end-to-end figures shared by stream and gateway.
func (r *replayRun) report(setups []float64) {
	out := r.out
	setupS := median(setups) + median(r.startDurs)
	out.note("set-up: %s s, then server start median %.4g s", fmtList(setups), median(r.startDurs))
	out.note("per pass: frames_per_s %s; per unstolen second %s; cpu_us_per_frame %s; live_heap_mb %s",
		fmtList(r.fps), fmtList(r.unstolenFPS), fmtList(r.cpuUs), fmtList(r.heap))
	np := len(r.fps)
	out.add("frames_per_s", "frames/s", median(r.fps), np)
	out.add("cpu_us_per_frame", "us", median(r.cpuUs), np)
	out.add("live_heap_mb", "MB", median(r.heap), np)
	out.add("failed_pct", "%", failedPct(out.failed, out.attempted), int(out.attempted))
	out.add("setup_s", "s", setupS, len(setups))
	out.json["throughput_per_s"] = median(r.unstolenFPS)
	out.json["cpu_us_per_op"] = median(r.cpuUs)
	out.json["live_heap_mb"] = median(r.heap)
	out.json["setup_s"] = setupS
}
