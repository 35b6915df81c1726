package ingest

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/seccomm"
)

// testHandler records every session the server opens so tests can assert on
// delivered frames, resume indices, and close errors.
type testHandler struct {
	mu        sync.Mutex
	total     int   // frames per sensor
	failAfter int   // per-connection frame count to fail at (<0 = never)
	opens     []int // delivered (resume) values seen at Open, in order
	rejected  []Status
	unattrib  []error
	frames    map[int][][]byte // delivered frames by sensor
	closeErrs []error
}

func newTestHandler(total int) *testHandler {
	return &testHandler{total: total, failAfter: -1, frames: map[int][][]byte{}}
}

func (h *testHandler) Open(sensorID, delivered int) (Session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sensorID < 0 {
		return nil, errors.New("unknown sensor")
	}
	h.opens = append(h.opens, delivered)
	return &testSession{h: h, sensorID: sensorID}, nil
}

func (h *testHandler) Rejected(sensorID int, status Status) {
	h.mu.Lock()
	h.rejected = append(h.rejected, status)
	h.mu.Unlock()
}

func (h *testHandler) Unattributed(err error) {
	h.mu.Lock()
	h.unattrib = append(h.unattrib, err)
	h.mu.Unlock()
}

func (h *testHandler) delivered(sensorID int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.frames[sensorID])
}

type testSession struct {
	h          *testHandler
	sensorID   int
	connFrames int
}

func (s *testSession) Total() int { return s.h.total }

func (s *testSession) Frame(index int, msg []byte) error {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failAfter >= 0 && s.connFrames >= h.failAfter {
		return fmt.Errorf("test fault: link dropped after %d frames", h.failAfter)
	}
	s.connFrames++
	h.frames[s.sensorID] = append(h.frames[s.sensorID], append([]byte(nil), msg...))
	return nil
}

func (s *testSession) Close(err error) {
	s.h.mu.Lock()
	s.h.closeErrs = append(s.h.closeErrs, err)
	s.h.mu.Unlock()
}

// sliceSource serves pre-built frames; the ingest layer treats them as
// opaque bytes, so no sealing is needed here.
type sliceSource struct {
	frames [][]byte
	next   int
}

func framesFor(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("frame-%03d", i))
	}
	return out
}

func (s *sliceSource) Total() int { return len(s.frames) }

func (s *sliceSource) Seek(resume int) error {
	s.next = resume
	return nil
}

func (s *sliceSource) Next(ctx context.Context) ([]byte, error) {
	msg := s.frames[s.next]
	s.next++
	return msg, nil
}

// startServer builds, binds, and serves a test server, returning it with
// its address and the channel Serve's return value lands on.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string, chan error) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	// Close is idempotent and waits for teardown, so this is safe even for
	// tests that drained or closed the server themselves.
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String(), serveErr
}

// dialHello opens a raw connection, sends the hello for id, and returns the
// server's ack.
func dialHello(t *testing.T, addr string, id int) (net.Conn, Status, int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hello [helloLen]byte
	hello[0] = helloMagic
	binary.BigEndian.PutUint32(hello[1:], uint32(id))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	st, resume, err := readAck(conn, 2*time.Second)
	if err != nil {
		t.Fatalf("reading hello ack: %v", err)
	}
	return conn, st, resume
}

func TestServerDeliversAndConfirms(t *testing.T) {
	h := newTestHandler(8)
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second})
	client := NewClient(ClientConfig{Addr: addr, SensorID: 3, IOTimeout: 2 * time.Second})
	stats, err := client.Run(context.Background(), &sliceSource{frames: framesFor(8)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesSent != 8 {
		t.Errorf("FramesSent = %d, want 8", stats.FramesSent)
	}
	if got := h.delivered(3); got != 8 {
		t.Errorf("server delivered %d frames, want 8", got)
	}
	if got := string(h.frames[3][5]); got != "frame-005" {
		t.Errorf("frame 5 = %q", got)
	}
}

func TestDrainCompletesInFlightSessions(t *testing.T) {
	// One worker, one in-flight session streamed slowly: Drain must not
	// return until that session has every frame and its final ack.
	h := newTestHandler(5)
	srv, addr, serveErr := startServer(t, ServerConfig{
		Handler: h, Shards: 1, WorkersPerShard: 1, QueueDepth: 4,
		IOTimeout: 2 * time.Second,
	})
	conn, st, _ := dialHello(t, addr, 1)
	defer conn.Close()
	if st != StatusAccept {
		t.Fatalf("hello ack status = %v", st)
	}

	drainDone := make(chan error, 1)
	go func() {
		// Let the first frames flow before draining.
		time.Sleep(60 * time.Millisecond)
		drainDone <- srv.Drain(context.Background())
	}()
	for _, msg := range framesFor(5) {
		if err := seccomm.WriteFrameDeadline(conn, msg, time.Second); err != nil {
			t.Fatalf("frame write: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	st, delivered, err := readAck(conn, 2*time.Second)
	if err != nil || st != StatusAccept || delivered != 5 {
		t.Fatalf("final ack = (%v, %d, %v), want (accept, 5, nil)", st, delivered, err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Drain returned: the in-flight session must be complete.
	if got := h.delivered(1); got != 5 {
		t.Errorf("at Drain return the session had %d frames, want 5", got)
	}
	if err := <-serveErr; !errors.Is(err, ErrClosed) {
		t.Errorf("Serve returned %v, want ErrClosed", err)
	}
}

func TestDrainRefusesQueuedConnections(t *testing.T) {
	// One busy worker, one queued connection: Drain must answer the queued
	// connection with StatusDraining instead of serving or resetting it.
	h := newTestHandler(3)
	srv, addr, _ := startServer(t, ServerConfig{
		Handler: h, Shards: 1, WorkersPerShard: 1, QueueDepth: 4,
		IOTimeout: time.Second,
	})
	// Occupy the only worker: accepted session that sends no frames (the
	// server waits on its read deadline).
	busy, st, _ := dialHello(t, addr, 1)
	defer busy.Close()
	if st != StatusAccept {
		t.Fatalf("busy hello status = %v", st)
	}
	// Queue a second connection; its hello will be consumed by the
	// draining reject.
	queued, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	var hello [helloLen]byte
	hello[0] = helloMagic
	binary.BigEndian.PutUint32(hello[1:], 2)
	if _, err := queued.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the accept loop enqueue it

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()
	st, _, err = readAck(queued, 3*time.Second)
	if err != nil {
		t.Fatalf("queued conn ack: %v", err)
	}
	if st != StatusDraining {
		t.Errorf("queued conn status = %v, want draining", st)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestOverloadShedsWithTypedReject(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newTestHandler(3)
	_, addr, _ := startServer(t, ServerConfig{
		Handler: h, Shards: 1, WorkersPerShard: 1, QueueDepth: 1,
		IOTimeout: 2 * time.Second, Metrics: reg,
	})
	// A occupies the only worker (accepted, then silent)...
	connA, st, _ := dialHello(t, addr, 1)
	defer connA.Close()
	if st != StatusAccept {
		t.Fatalf("A status = %v", st)
	}
	// ...B fills the only queue slot...
	connB, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	time.Sleep(50 * time.Millisecond)
	// ...so C must be shed with an explicit typed reject, not a reset.
	connC, st, _ := dialHello(t, addr, 3)
	defer connC.Close()
	if st != StatusOverloaded {
		t.Errorf("C status = %v, want overloaded", st)
	}
	if got := reg.Counter("ingest.shed_overload").Value(); got < 1 {
		t.Errorf("ingest.shed_overload = %d, want >= 1", got)
	}
}

func TestClientRetriesTransientReject(t *testing.T) {
	// A client that hits a full server must back off on the typed reject
	// and succeed once capacity frees up, without spending its reconnect
	// budget (ReconnectAttempts stays 0).
	h := newTestHandler(2)
	_, addr, _ := startServer(t, ServerConfig{
		Handler: h, Shards: 1, WorkersPerShard: 1, QueueDepth: 1,
		IOTimeout: 2 * time.Second,
	})
	// Jam the worker and the queue slot.
	connA, st, _ := dialHello(t, addr, 1)
	if st != StatusAccept {
		t.Fatalf("A status = %v", st)
	}
	connB, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// Free capacity shortly after the client's first, rejected attempt.
	go func() {
		time.Sleep(120 * time.Millisecond)
		connA.Close()
		connB.Close()
	}()
	client := NewClient(ClientConfig{
		Addr: addr, SensorID: 9, IOTimeout: 2 * time.Second,
		RejectAttempts: 20, RejectBackoff: 40 * time.Millisecond,
	})
	stats, err := client.Run(context.Background(), &sliceSource{frames: framesFor(2)})
	if err != nil {
		t.Fatalf("Run after capacity freed: %v", err)
	}
	if stats.SoftRejects < 1 {
		t.Errorf("SoftRejects = %d, want >= 1 (the first attempt must have been shed)", stats.SoftRejects)
	}
	if stats.Reconnects != 0 {
		t.Errorf("Reconnects = %d: typed rejects must not spend the reconnect budget", stats.Reconnects)
	}
}

func TestDuplicateSensorRejected(t *testing.T) {
	h := newTestHandler(3)
	_, addr, _ := startServer(t, ServerConfig{
		Handler: h, IOTimeout: 2 * time.Second, ClaimWait: 80 * time.Millisecond,
	})
	first, st, _ := dialHello(t, addr, 7)
	defer first.Close()
	if st != StatusAccept {
		t.Fatalf("first status = %v", st)
	}
	second, st, _ := dialHello(t, addr, 7)
	defer second.Close()
	if st != StatusDuplicate {
		t.Errorf("second status = %v, want duplicate", st)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.rejected) != 1 || h.rejected[0] != StatusDuplicate {
		t.Errorf("handler.Rejected saw %v", h.rejected)
	}
}

func TestClientResumesAcrossServerDrops(t *testing.T) {
	// The server drops every connection after two frames; a client with a
	// reconnect budget must resume from the registry's delivered index
	// each time and finish the stream.
	h := newTestHandler(6)
	h.failAfter = 2
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second})
	client := NewClient(ClientConfig{
		Addr: addr, SensorID: 4, IOTimeout: time.Second,
		DialBackoff: 10 * time.Millisecond, ReconnectAttempts: 5,
	})
	stats, err := client.Run(context.Background(), &sliceSource{frames: framesFor(6)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := h.delivered(4); got != 6 {
		t.Errorf("delivered %d frames, want 6", got)
	}
	if stats.Reconnects != 2 {
		t.Errorf("Reconnects = %d, want 2 (6 frames at 2 per connection)", stats.Reconnects)
	}
	h.mu.Lock()
	opens := append([]int(nil), h.opens...)
	h.mu.Unlock()
	want := []int{0, 2, 4}
	if len(opens) != len(want) {
		t.Fatalf("opens = %v, want %v", opens, want)
	}
	for i := range want {
		if opens[i] != want[i] {
			t.Fatalf("opens = %v, want %v (registry must hand each reconnect its resume index)", opens, want)
		}
	}
}

func TestRefusedIsTerminal(t *testing.T) {
	h := HandlerFuncs{
		OpenFunc: func(sensorID, delivered int) (Session, error) {
			return nil, errors.New("sensor not enrolled")
		},
	}
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: time.Second})
	client := NewClient(ClientConfig{
		Addr: addr, SensorID: 5, IOTimeout: time.Second, ReconnectAttempts: 3,
	})
	stats, err := client.Run(context.Background(), &sliceSource{frames: framesFor(2)})
	if err == nil {
		t.Fatal("refused sensor completed")
	}
	if !IsTerminal(err) {
		t.Errorf("refused reject is not terminal: %v", err)
	}
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Status != StatusRefused {
		t.Errorf("err = %v, want RejectedError{refused}", err)
	}
	if stats.Reconnects != 0 || stats.SoftRejects != 0 {
		t.Errorf("terminal reject consumed budgets: %+v", stats)
	}
}

func TestCloseSeversActiveSessions(t *testing.T) {
	h := newTestHandler(5)
	srv, addr, serveErr := startServer(t, ServerConfig{Handler: h, IOTimeout: 5 * time.Second})
	conn, st, _ := dialHello(t, addr, 2)
	defer conn.Close()
	if st != StatusAccept {
		t.Fatalf("status = %v", st)
	}
	// The session is mid-read with a 5s deadline; Close must not wait for
	// it to expire.
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Close took %v, want well under the read deadline", elapsed)
	}
	if err := <-serveErr; !errors.Is(err, ErrClosed) {
		t.Errorf("Serve returned %v, want ErrClosed", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.closeErrs) != 1 || h.closeErrs[0] == nil {
		t.Errorf("severed session close errors = %v, want one non-nil", h.closeErrs)
	}
}

func TestBadMagicIsUnattributed(t *testing.T) {
	h := newTestHandler(1)
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: time.Second})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x00, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		errs := append([]error(nil), h.unattrib...)
		h.mu.Unlock()
		if len(errs) == 1 {
			var pe *ProtocolError
			if !errors.As(errs[0], &pe) || pe.What != "hello magic" || pe.Value != 0x00 {
				t.Fatalf("unattributed err = %v, want a hello-magic *ProtocolError", errs[0])
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("bad-magic connection never reported unattributed")
}

func TestLifecycleErrors(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("NewServer accepted a nil handler")
	}
	srv, err := NewServer(ServerConfig{Handler: newTestHandler(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err == nil {
		t.Error("Serve before Listen succeeded")
	}
	// Close before Serve must not hang, and must be idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); !errors.Is(err, ErrClosed) {
		t.Errorf("Listen after Close = %v, want ErrClosed", err)
	}
}

func TestDrainLeavesNoGoroutines(t *testing.T) {
	// The acceptance bar for the lifecycle: run real traffic through a
	// server, drain it, and end with the goroutine count back at baseline.
	base := runtime.NumGoroutine()
	h := newTestHandler(4)
	srv, addr, serveErr := startServer(t, ServerConfig{
		Handler: h, Shards: 2, WorkersPerShard: 4, QueueDepth: 8,
		IOTimeout: 2 * time.Second,
	})
	var wg sync.WaitGroup
	for id := 0; id < 6; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := NewClient(ClientConfig{Addr: addr, SensorID: id, IOTimeout: 2 * time.Second})
			if _, err := client.Run(context.Background(), &sliceSource{frames: framesFor(4)}); err != nil {
				t.Errorf("sensor %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrClosed) {
		t.Errorf("Serve returned %v, want ErrClosed", err)
	}
	for id := 0; id < 6; id++ {
		if got := h.delivered(id); got != 4 {
			t.Errorf("sensor %d delivered %d frames, want 4", id, got)
		}
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails unless the goroutine count settles back to base.
// Counts settle asynchronously (conn close, runtime GC of netpoll state),
// so it polls briefly instead of asserting instantly.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRegistryEvictionBoundsChurn drives many short-lived sensors through
// the server and asserts the session registry does not grow one entry per
// sensor id ever seen: completed entries are evicted after the idle TTL, so
// the registry is bounded by the live population plus the TTL window.
func TestRegistryEvictionBoundsChurn(t *testing.T) {
	const ttl = 40 * time.Millisecond
	h := newTestHandler(3)
	srv, addr, _ := startServer(t, ServerConfig{
		Handler: h, IOTimeout: 2 * time.Second, SessionTTL: ttl,
	})

	// Churn: 60 distinct sensor ids, each completing its stream and leaving.
	for id := 0; id < 60; id++ {
		client := NewClient(ClientConfig{Addr: addr, SensorID: id, IOTimeout: 2 * time.Second})
		if _, err := client.Run(context.Background(), &sliceSource{frames: framesFor(3)}); err != nil {
			t.Fatalf("sensor %d: %v", id, err)
		}
	}
	if got := srv.sessions.size(); got > 60 {
		t.Fatalf("registry holds %d entries after 60 sensors", got)
	}

	// Sweeps run on claim, so keep a trickle of fresh sensors arriving past
	// the TTL and watch the churned population drain out.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sessions.size() > 10 {
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d entries long after the TTL", srv.sessions.size())
		}
		time.Sleep(ttl)
		client := NewClient(ClientConfig{Addr: addr, SensorID: 1000 + int(time.Now().UnixNano()%1000), IOTimeout: 2 * time.Second})
		if _, err := client.Run(context.Background(), &sliceSource{frames: framesFor(3)}); err != nil {
			t.Fatalf("trickle sensor: %v", err)
		}
	}

	// A completed, evicted sensor that returns is re-admitted from scratch:
	// its hello ack carries resume index 0, and the stream replays fully.
	before := h.delivered(7)
	client := NewClient(ClientConfig{Addr: addr, SensorID: 7, IOTimeout: 2 * time.Second})
	if _, err := client.Run(context.Background(), &sliceSource{frames: framesFor(3)}); err != nil {
		t.Fatalf("re-admitted sensor: %v", err)
	}
	if got := h.delivered(7); got != before+3 {
		t.Errorf("re-admitted sensor delivered %d new frames, want 3", got-before)
	}
}

// TestEvictionSparesIncompleteStreams pins the resume semantics the TTL must
// not break: a sensor that dropped mid-stream keeps its registry entry (and
// delivered index) across the TTL, because only final-acked streams evict.
func TestEvictionSparesIncompleteStreams(t *testing.T) {
	const ttl = 30 * time.Millisecond
	h := newTestHandler(6)
	srv, addr, _ := startServer(t, ServerConfig{
		Handler: h, IOTimeout: 2 * time.Second, SessionTTL: ttl,
	})

	// Deliver half the stream on a raw connection, then drop the link.
	conn, st, resume := dialHello(t, addr, 42)
	if st != StatusAccept || resume != 0 {
		t.Fatalf("hello ack = %v/%d", st, resume)
	}
	for _, msg := range framesFor(6)[:3] {
		if err := seccomm.WriteFrameDeadline(conn, msg, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the server has registered all three frames, then sever.
	for h.delivered(42) < 3 {
		time.Sleep(2 * time.Millisecond)
	}
	conn.Close()

	// Age the entry well past the TTL while churn keeps sweeps running.
	for i := 0; i < 4; i++ {
		time.Sleep(ttl)
		client := NewClient(ClientConfig{Addr: addr, SensorID: 9000 + i, IOTimeout: 2 * time.Second})
		if _, err := client.Run(context.Background(), &sliceSource{frames: framesFor(6)}); err != nil {
			t.Fatalf("churn sensor: %v", err)
		}
	}

	// The incomplete entry must still be there with its delivered index.
	client := NewClient(ClientConfig{Addr: addr, SensorID: 42, IOTimeout: 2 * time.Second})
	if _, err := client.Run(context.Background(), &sliceSource{frames: framesFor(6)}); err != nil {
		t.Fatalf("resuming sensor: %v", err)
	}
	if got := h.delivered(42); got != 6 {
		t.Errorf("sensor 42 delivered %d frames in total, want 6 (3 + 3 resumed)", got)
	}
	h.mu.Lock()
	resumes := append([]int(nil), h.opens...)
	h.mu.Unlock()
	found := false
	for _, r := range resumes {
		if r == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no session opened at resume index 3; opens = %v", resumes)
	}
	_ = srv
}

// recordingStager captures the delivery-path tap calls for assertions.
type recordingStager struct {
	mu      sync.Mutex
	admits  [][3]int // sensor, resume, total
	frames  map[int][]string
	ends    map[int]bool // sensor -> completed flag of last SessionEnd
	endings int
}

func (r *recordingStager) Admit(sensorID, resume, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.admits = append(r.admits, [3]int{sensorID, resume, total})
}

func (r *recordingStager) StageFrame(sensorID, index int, msg []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frames == nil {
		r.frames = map[int][]string{}
	}
	r.frames[sensorID] = append(r.frames[sensorID], fmt.Sprintf("%d:%s", index, msg))
}

func (r *recordingStager) SessionEnd(sensorID int, completed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ends == nil {
		r.ends = map[int]bool{}
	}
	r.ends[sensorID] = completed
	r.endings++
}

// TestStagerTapObservesDeliveryPath checks the Stager hook sees exactly the
// delivered stream — admit with the resume index, every accepted frame in
// order, and a completed SessionEnd — without altering delivery.
func TestStagerTapObservesDeliveryPath(t *testing.T) {
	h := newTestHandler(4)
	tap := &recordingStager{}
	_, addr, _ := startServer(t, ServerConfig{Handler: h, IOTimeout: 2 * time.Second, Stager: tap})
	client := NewClient(ClientConfig{Addr: addr, SensorID: 5, IOTimeout: 2 * time.Second})
	if _, err := client.Run(context.Background(), &sliceSource{frames: framesFor(4)}); err != nil {
		t.Fatal(err)
	}
	if got := h.delivered(5); got != 4 {
		t.Fatalf("delivery changed under the tap: %d frames", got)
	}
	// SessionEnd runs as the server retires the connection, after the final
	// ack the client returned on; wait for it rather than racing it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		tap.mu.Lock()
		ended := tap.endings > 0
		tap.mu.Unlock()
		if ended || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.admits) != 1 || tap.admits[0] != [3]int{5, 0, 4} {
		t.Errorf("admits = %v", tap.admits)
	}
	want := []string{"0:frame-000", "1:frame-001", "2:frame-002", "3:frame-003"}
	if len(tap.frames[5]) != len(want) {
		t.Fatalf("staged frames = %v", tap.frames[5])
	}
	for i, w := range want {
		if tap.frames[5][i] != w {
			t.Errorf("staged frame %d = %q, want %q", i, tap.frames[5][i], w)
		}
	}
	if done, ok := tap.ends[5]; !ok || !done || tap.endings != 1 {
		t.Errorf("SessionEnd: ends=%v endings=%d", tap.ends, tap.endings)
	}
}
