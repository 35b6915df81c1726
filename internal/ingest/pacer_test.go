package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestPaceModeParseAndString(t *testing.T) {
	for _, m := range []PaceMode{PaceOff, PaceLive, PaceConstant, PaceJitter} {
		got, err := ParsePaceMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParsePaceMode(%q) = (%v, %v), want (%v, nil)", m.String(), got, err, m)
		}
	}
	if _, err := ParsePaceMode("bogus"); err == nil {
		t.Error("ParsePaceMode accepted an unknown mode")
	}
	if got := PaceMode(42).String(); got != "pace(42)" {
		t.Errorf("unknown mode prints %q", got)
	}
}

func TestMarkUnmarkRoundTrip(t *testing.T) {
	payload := []byte("quantized batch")
	data, dummy, err := Unmark(MarkReal(nil, payload))
	if err != nil || dummy {
		t.Fatalf("Unmark(MarkReal) = (dummy=%v, err=%v)", dummy, err)
	}
	if !bytes.Equal(data, payload) {
		t.Errorf("real payload corrupted: %q", data)
	}
	data, dummy, err = Unmark(MarkDummy(nil, make([]byte, len(payload))))
	if err != nil || !dummy {
		t.Fatalf("Unmark(MarkDummy) = (dummy=%v, err=%v)", dummy, err)
	}
	if data != nil {
		t.Errorf("dummy returned payload %q", data)
	}
	// Marked real and dummy payloads of equal content length have equal
	// total length — the precondition for sealed-size indistinguishability.
	if lr, ld := len(MarkReal(nil, payload)), len(MarkDummy(nil, make([]byte, len(payload)))); lr != ld {
		t.Errorf("marked lengths differ: real %d, dummy %d", lr, ld)
	}
	var pe *ProtocolError
	if _, _, err := Unmark([]byte{0x7F, 1, 2}); !errors.As(err, &pe) || pe.Value != 0x7F {
		t.Errorf("unknown marker: err = %v, want ProtocolError{Value: 0x7F}", err)
	}
	if _, _, err := Unmark(nil); !errors.As(err, &pe) {
		t.Errorf("empty payload: err = %v, want ProtocolError", err)
	}
}

func TestPaceSchedulerDeterministic(t *testing.T) {
	const interval = 10 * time.Millisecond
	draw := func(cfg PacerConfig, seed int64, n int) []time.Duration {
		s := newPaceScheduler(cfg, seed)
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}

	// Constant mode: every slot is exactly Interval, regardless of seed.
	for _, d := range draw(PacerConfig{Mode: PaceConstant, Interval: interval}, 1, 16) {
		if d != interval {
			t.Fatalf("constant schedule emitted %v, want %v", d, interval)
		}
	}

	// Jitter mode: fixed seed reproduces the schedule exactly; every slot
	// stays inside [Interval*(1-f), Interval*(1+f)]; and the schedule is
	// actually jittered (not constant in disguise).
	jcfg := PacerConfig{Mode: PaceJitter, Interval: interval, JitterFrac: 0.5}
	a := draw(jcfg, 99, 64)
	b := draw(jcfg, 99, 64)
	lo := time.Duration(float64(interval) * 0.5)
	hi := time.Duration(float64(interval) * 1.5)
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d differs across same-seed schedules: %v vs %v", i, a[i], b[i])
		}
		if a[i] < lo || a[i] > hi {
			t.Errorf("slot %d = %v outside jitter window [%v, %v]", i, a[i], lo, hi)
		}
		if a[i] != interval {
			varied = true
		}
	}
	if !varied {
		t.Error("jittered schedule never deviated from the base interval")
	}
	if c := draw(jcfg, 100, 64); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Error("different seeds produced identical jitter schedules")
	}
}

// timedSource is a sliceSource with a data-driven availability schedule:
// gap[i] is the delay between frame i-1 and frame i becoming available.
type timedSource struct {
	sliceSource
	gaps []time.Duration
	last time.Duration
}

func (s *timedSource) Next(ctx context.Context) ([]byte, error) {
	s.last = s.gaps[s.next]
	return s.sliceSource.Next(ctx)
}

func (s *timedSource) LastGap() time.Duration { return s.last }

// unmarkHandler is a testHandler whose sessions speak the pacer's marker
// convention: dummies are dropped with ErrDummyFrame, real payloads are
// stored unmarked.
type unmarkHandler struct {
	*testHandler
	dummies int    // guarded by testHandler.mu
	order   []byte // 'R' real, 'D' dummy, in arrival order; guarded by testHandler.mu
}

func (h *unmarkHandler) Open(sensorID, delivered int) (Session, error) {
	s, err := h.testHandler.Open(sensorID, delivered)
	if err != nil {
		return nil, err
	}
	return &unmarkSession{inner: s.(*testSession), h: h}, nil
}

type unmarkSession struct {
	inner *testSession
	h     *unmarkHandler
}

func (s *unmarkSession) Total() int { return s.inner.Total() }

func (s *unmarkSession) Frame(index int, msg []byte) error {
	data, dummy, err := Unmark(msg)
	if err != nil {
		return err
	}
	s.h.mu.Lock()
	if dummy {
		s.h.dummies++
		s.h.order = append(s.h.order, 'D')
		s.h.mu.Unlock()
		return ErrDummyFrame
	}
	s.h.order = append(s.h.order, 'R')
	s.h.mu.Unlock()
	return s.inner.Frame(index, data)
}

func (s *unmarkSession) Close(err error) { s.inner.Close(err) }

// markedFrames wraps each test frame with the real marker, the shape a
// pacing-aware source puts on the wire.
func markedFrames(frames [][]byte) [][]byte {
	out := make([][]byte, len(frames))
	for i, f := range frames {
		out[i] = MarkReal(nil, f)
	}
	return out
}

func testDummy(size int) func() ([]byte, error) {
	return func() ([]byte, error) { return MarkDummy(nil, make([]byte, size)), nil }
}

// pacedRun is what one paced client/server round trip observed.
type pacedRun struct {
	stats     ClientStats
	delivered [][]byte // unmarked real frames, in delivery order
	order     string   // the server session's view: 'R' real, 'D' dummy
	snap      metrics.Snapshot
}

// runPacedSource drives one client/server round trip of src under the given
// pacer config, with the client seed fixed at 17.
func runPacedSource(t *testing.T, pacer PacerConfig, src FrameSource) pacedRun {
	t.Helper()
	h := &unmarkHandler{testHandler: newTestHandler(src.Total())}
	reg := metrics.NewRegistry()
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second, Metrics: reg})
	client := NewClient(ClientConfig{
		Addr:      addr,
		SensorID:  5,
		IOTimeout: 2 * time.Second,
		Seed:      17,
		Pacer:     pacer,
		Metrics:   reg,
	})
	stats, err := client.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("paced run (%v): %v", pacer.Mode, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return pacedRun{
		stats:     stats,
		delivered: append([][]byte(nil), h.frames[5]...),
		order:     string(h.order),
		snap:      reg.Snapshot(),
	}
}

// runPaced drives one client/server round trip of frames released on the
// gaps schedule and returns the client stats, the delivered (unmarked)
// frames, the number of dummies the server dropped, and the metrics.
func runPaced(t *testing.T, pacer PacerConfig, frames [][]byte, gaps []time.Duration) (ClientStats, [][]byte, int, metrics.Snapshot) {
	t.Helper()
	r := runPacedSource(t, pacer, &timedSource{sliceSource: sliceSource{frames: markedFrames(frames)}, gaps: gaps})
	return r.stats, r.delivered, strings.Count(r.order, "D"), r.snap
}

// expectedPacing replays the release schedule off the wall clock: slots
// advance by the seeded scheduler's intervals, frames become available at
// the cumulative gaps, and each slot carries the pending frame if it is
// available by then and a dummy otherwise. It returns the real/dummy order
// and the AoI accounting (slot minus availability, per real frame).
func expectedPacing(p PacerConfig, seed int64, gaps []time.Duration) (order string, aoiTotal, aoiMax int64) {
	sched := newPaceScheduler(p, seed)
	var avail, slot time.Duration
	var b strings.Builder
	for _, g := range gaps {
		avail += g
		for {
			slot += sched.next()
			if avail <= slot {
				break
			}
			b.WriteByte('D')
		}
		b.WriteByte('R')
		aoi := (slot - avail).Microseconds()
		aoiTotal += aoi
		aoiMax = max(aoiMax, aoi)
	}
	return b.String(), aoiTotal, aoiMax
}

// TestPacedReleasePattern pins the release loop's decisions exactly: for a
// fixed seed and gap sequence, the slots that carry a real frame, the dummy
// count and the AoI accounting are functions of the schedule alone, never
// of scheduler latency. PaceLive sends no cover and observes AoI once per
// frame only when the source reports its generation schedule.
func TestPacedReleasePattern(t *testing.T) {
	const n = 12
	frames := framesFor(n)
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = time.Duration(1+i%3) * time.Millisecond
	}
	dummySize := len(MarkReal(nil, frames[0])) - 1
	// A 1.5 ms constant interval is off the gaps' 1 ms grid, so some real
	// frames wait for their slot and the AoI total is not zero.
	for _, p := range []PacerConfig{
		{Mode: PaceConstant, Interval: 1500 * time.Microsecond, Dummy: testDummy(dummySize)},
		{Mode: PaceJitter, Interval: time.Millisecond, JitterFrac: 0.5, Dummy: testDummy(dummySize)},
	} {
		t.Run(p.Mode.String(), func(t *testing.T) {
			order, aoiTotal, aoiMax := expectedPacing(p, 17, gaps)
			r := runPacedSource(t, p, &timedSource{sliceSource: sliceSource{frames: markedFrames(frames)}, gaps: gaps})
			if r.order != order {
				t.Errorf("release order %s, want %s", r.order, order)
			}
			if want := strings.Count(order, "D"); r.stats.DummyFrames != want {
				t.Errorf("DummyFrames = %d, want %d", r.stats.DummyFrames, want)
			}
			if r.stats.FramesSent != n {
				t.Errorf("FramesSent = %d, want %d", r.stats.FramesSent, n)
			}
			if r.stats.AoIMicrosTotal != aoiTotal || r.stats.AoIMicrosMax != aoiMax {
				t.Errorf("AoI total/max = %d/%d µs, want %d/%d", r.stats.AoIMicrosTotal, r.stats.AoIMicrosMax, aoiTotal, aoiMax)
			}
			if got := r.snap.Histograms["ingest.client.aoi_ns"].Count; got != n {
				t.Errorf("ingest.client.aoi_ns count = %d, want %d", got, n)
			}
		})
	}

	live := PacerConfig{Mode: PaceLive}
	t.Run("live", func(t *testing.T) {
		r := runPacedSource(t, live, &timedSource{sliceSource: sliceSource{frames: markedFrames(frames)}, gaps: gaps})
		if want := strings.Repeat("R", n); r.order != want || r.stats.DummyFrames != 0 {
			t.Errorf("live release order %s with %d dummies, want %s and none", r.order, r.stats.DummyFrames, want)
		}
		if got := r.snap.Histograms["ingest.client.aoi_ns"].Count; got != n {
			t.Errorf("ingest.client.aoi_ns count = %d, want %d", got, n)
		}
	})
	t.Run("live-untimed", func(t *testing.T) {
		r := runPacedSource(t, live, &sliceSource{frames: markedFrames(frames)})
		if want := strings.Repeat("R", n); r.order != want || r.stats.DummyFrames != 0 {
			t.Errorf("live release order %s with %d dummies, want %s and none", r.order, r.stats.DummyFrames, want)
		}
		if got := r.snap.Histograms["ingest.client.aoi_ns"].Count; got != 0 {
			t.Errorf("ingest.client.aoi_ns count = %d, want 0 without a generation schedule", got)
		}
		if r.stats.AoIMicrosTotal != 0 {
			t.Errorf("AoIMicrosTotal = %d, want 0 without a generation schedule", r.stats.AoIMicrosTotal)
		}
	})
}

func TestPacedDeliveryIdentity(t *testing.T) {
	// The defense's correctness bar: the server's delivered output must be
	// byte-identical with pacing off, live, constant, and jittered — the
	// pacer may only change *when* frames move and add droppable cover.
	const n = 12
	frames := framesFor(n)
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = time.Duration(1+i%3) * time.Millisecond
	}

	// Baseline: pacing off, plain unmarked frames through the plain handler.
	h := newTestHandler(n)
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second})
	baseClient := NewClient(ClientConfig{Addr: addr, SensorID: 5, IOTimeout: 2 * time.Second})
	if _, err := baseClient.Run(context.Background(), &sliceSource{frames: frames}); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	baseline := append([][]byte(nil), h.frames[5]...)
	h.mu.Unlock()

	dummySize := len(MarkReal(nil, frames[0])) - 1
	cases := []struct {
		name        string
		pacer       PacerConfig
		wantDummies bool
	}{
		{"live", PacerConfig{Mode: PaceLive}, false},
		{"constant", PacerConfig{Mode: PaceConstant, Interval: time.Millisecond, Dummy: testDummy(dummySize)}, true},
		{"jitter", PacerConfig{Mode: PaceJitter, Interval: time.Millisecond, JitterFrac: 0.5, Dummy: testDummy(dummySize)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats, delivered, dummies, snap := runPaced(t, tc.pacer, frames, gaps)
			if len(delivered) != n {
				t.Fatalf("delivered %d frames, want %d", len(delivered), n)
			}
			for i := range delivered {
				if !bytes.Equal(delivered[i], baseline[i]) {
					t.Fatalf("frame %d differs from unpaced baseline: %q vs %q", i, delivered[i], baseline[i])
				}
			}
			if stats.FramesSent != n {
				t.Errorf("FramesSent = %d, want %d (real frames only)", stats.FramesSent, n)
			}
			if tc.wantDummies {
				if stats.DummyFrames == 0 || dummies == 0 {
					t.Errorf("expected cover traffic: client sent %d dummies, server dropped %d", stats.DummyFrames, dummies)
				}
				if stats.DummyFrames != dummies {
					t.Errorf("dummy accounting mismatch: client %d, server %d", stats.DummyFrames, dummies)
				}
				if got := snap.Counters["ingest.dummy_frames"]; got != int64(dummies) {
					t.Errorf("ingest.dummy_frames = %d, want %d", got, dummies)
				}
				if stats.DummyBytesSent == 0 {
					t.Error("DummyBytesSent not accounted")
				}
				if stats.AoIMicrosTotal < 0 || stats.AoIMicrosMax < 0 {
					t.Errorf("negative AoI accounting: total %d, max %d", stats.AoIMicrosTotal, stats.AoIMicrosMax)
				}
				if mean := stats.MeanAoIMicros(); mean < 0 {
					t.Errorf("MeanAoIMicros = %v", mean)
				}
			} else if stats.DummyFrames != 0 || dummies != 0 {
				t.Errorf("live mode produced dummies: client %d, server %d", stats.DummyFrames, dummies)
			}
			if got := snap.Counters["ingest.frames"]; got != int64(n) {
				t.Errorf("ingest.frames = %d, want %d (dummies must not count)", got, n)
			}
		})
	}
}

func TestPacedResumeAfterReconnect(t *testing.T) {
	// Dummies must not advance the registry's delivered index: a mid-stream
	// reconnect under pacing resumes at the first undelivered *real* frame.
	const n = 10
	frames := framesFor(n)
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = 2 * time.Millisecond
	}
	h := &unmarkHandler{testHandler: newTestHandler(n)}
	h.failAfter = 4 // first connection dies after 4 real frames
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second})
	client := NewClient(ClientConfig{
		Addr:              addr,
		SensorID:          9,
		IOTimeout:         2 * time.Second,
		ReconnectAttempts: 3,
		Seed:              23,
		Pacer: PacerConfig{
			Mode:     PaceConstant,
			Interval: time.Millisecond,
			Dummy:    testDummy(len(MarkReal(nil, frames[0])) - 1),
		},
	})
	src := &timedSource{sliceSource: sliceSource{frames: markedFrames(frames)}, gaps: gaps}
	stats, err := client.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("paced resume run: %v", err)
	}
	if stats.Reconnects == 0 {
		t.Error("expected at least one reconnect")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if got := len(h.frames[9]); got != n {
		t.Fatalf("delivered %d frames, want %d", got, n)
	}
	for i, f := range h.frames[9] {
		want := fmt.Sprintf("frame-%03d", i)
		if string(f) != want {
			t.Errorf("frame %d = %q, want %q (resume must not duplicate or skip)", i, f, want)
		}
	}
}

func TestPacedConfigErrorsAreTerminal(t *testing.T) {
	h := newTestHandler(2)
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second})
	cases := []struct {
		name  string
		pacer PacerConfig
	}{
		{"no interval", PacerConfig{Mode: PaceConstant, Dummy: testDummy(8)}},
		{"no dummy", PacerConfig{Mode: PaceConstant, Interval: time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client := NewClient(ClientConfig{Addr: addr, SensorID: 1, IOTimeout: time.Second, Pacer: tc.pacer})
			src := &timedSource{
				sliceSource: sliceSource{frames: markedFrames(framesFor(2))},
				gaps:        []time.Duration{0, 0},
			}
			_, err := client.Run(context.Background(), src)
			if err == nil {
				t.Fatal("misconfigured pacer ran")
			}
			if !IsTerminal(err) {
				t.Errorf("config error %v not terminal — it would burn the reconnect budget", err)
			}
		})
	}
}

// TestPacedDummySealedBeforeSlot pins when a slot's dummy is made: the
// real/dummy decision reads only the generation clock and the scheduled
// slot, so the slot's dummy is sealed and framed before the client sleeps
// toward the slot, not after. With a 1 h interval and a first frame due
// after 2 h, the first slot carries a dummy, and Dummy must be called while
// that hour-long sleep is still running.
func TestPacedDummySealedBeforeSlot(t *testing.T) {
	h := &unmarkHandler{testHandler: newTestHandler(1)}
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second})
	sealed := make(chan struct{}, 1)
	dummy := testDummy(8)
	client := NewClient(ClientConfig{
		Addr: addr, SensorID: 1, IOTimeout: 2 * time.Second,
		Pacer: PacerConfig{Mode: PaceConstant, Interval: time.Hour, Dummy: func() ([]byte, error) {
			select {
			case sealed <- struct{}{}:
			default:
			}
			return dummy()
		}},
	})
	src := &timedSource{
		sliceSource: sliceSource{frames: markedFrames(framesFor(1))},
		gaps:        []time.Duration{2 * time.Hour},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := client.Run(ctx, src)
		done <- err
	}()
	select {
	case <-sealed:
	case <-time.After(5 * time.Second):
		t.Error("no dummy sealed 5s into a 1h slot: the dummy waits for the slot's sleep")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled paced run returned %v, want context.Canceled", err)
	}
}

// TestPacerStatsConcurrencySafety runs two paced clients against one server
// under the race detector: distinct Client values share nothing, and server
// accounting is registry-locked.
func TestPacerStatsConcurrencySafety(t *testing.T) {
	const n = 6
	h := &unmarkHandler{testHandler: newTestHandler(n)}
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second})
	var wg sync.WaitGroup
	for id := 1; id <= 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			frames := framesFor(n)
			gaps := make([]time.Duration, n)
			for i := range gaps {
				gaps[i] = time.Millisecond
			}
			client := NewClient(ClientConfig{
				Addr:      addr,
				SensorID:  id,
				IOTimeout: 2 * time.Second,
				Pacer: PacerConfig{
					Mode:       PaceJitter,
					Interval:   time.Millisecond,
					JitterFrac: 0.3,
					Dummy:      testDummy(len(MarkReal(nil, frames[0])) - 1),
				},
			})
			src := &timedSource{sliceSource: sliceSource{frames: markedFrames(frames)}, gaps: gaps}
			if _, err := client.Run(context.Background(), src); err != nil {
				t.Errorf("sensor %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	for id := 1; id <= 2; id++ {
		if got := len(h.frames[id]); got != n {
			t.Errorf("sensor %d delivered %d frames, want %d", id, got, n)
		}
	}
}

func BenchmarkUnmark(b *testing.B) {
	marked := MarkReal(nil, make([]byte, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, dummy, err := Unmark(marked); err != nil || dummy {
			b.Fatal(dummy, err)
		}
	}
}
