package ingest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/seccomm"
)

// Server defaults, applied when the corresponding ServerConfig knob is zero.
const (
	defaultShards          = 4
	defaultWorkersPerShard = 8
	defaultQueueDepth      = 32
	// defaultRejecters bounds the goroutines that write typed rejects to
	// shed connections; past that, shed connections are dropped outright.
	defaultRejecters = 32
	// defaultSessionTTL is how long a completed (final-acked) sensor's
	// registry entry survives idle before eviction. Without eviction the
	// registry grows one entry per sensor id ever seen — unbounded under
	// sensor churn.
	defaultSessionTTL = time.Minute
)

// ServerConfig configures a Server. Handler is required; everything else
// has a sensible default.
type ServerConfig struct {
	// Handler opens sessions for identified connections.
	Handler Handler
	// Shards is the number of accept loops, each owning one connection
	// queue and worker pool (default 4).
	Shards int
	// WorkersPerShard is the session worker count per shard (default 8).
	// Shards*WorkersPerShard bounds the concurrently served connections.
	WorkersPerShard int
	// QueueDepth is the per-shard bounded queue of accepted-but-unserved
	// connections (default 32). When every queue is full new connections
	// are shed with StatusOverloaded.
	QueueDepth int
	// IOTimeout is the per-read/per-write deadline on every connection
	// (default 5s). A silent peer fails its own session, never a worker.
	IOTimeout time.Duration
	// ClaimWait bounds how long a new connection waits for the sensor
	// id's previous owner to release its claim before the connection is
	// refused with StatusDuplicate (default IOTimeout).
	ClaimWait time.Duration
	// SessionTTL bounds the session registry under sensor churn: an entry
	// whose stream completed (final ack sent) is evicted once it has sat
	// idle this long. Incomplete streams are never evicted — their
	// delivered index is exactly what a resuming sensor needs. A completed
	// sensor that returns after eviction is re-admitted from scratch via
	// the ordinary hello handshake (delivered = 0). Zero selects the
	// default (1 minute); negative keeps every entry forever (the
	// pre-eviction behavior).
	SessionTTL time.Duration
	// Stager, when set, taps the delivery path for the streaming pipeline:
	// one Admit per accepted session, one StageFrame per delivered real
	// frame, one SessionEnd per retired connection. Nil (the default)
	// leaves the delivery path exactly as it was.
	Stager Stager
	// Clock supplies the session registry's eviction clock (default
	// time.Now). A cluster gateway injects one shared clock into every
	// node's registry and its own session-locator map so the two tiers
	// agree on when an idle entry dies; tests inject a fake clock so TTL
	// paths run without sleeping. Only idle/TTL accounting reads it —
	// I/O deadlines and claim waits stay on the wall clock.
	Clock func() time.Time
	// Metrics, when set, receives the ingest.* instrument family. Nil is
	// fine: every instrument degrades to a no-op.
	Metrics *metrics.Registry
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = defaultWorkersPerShard
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = DefaultIOTimeout
	}
	if cfg.ClaimWait <= 0 {
		cfg.ClaimWait = cfg.IOTimeout
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = defaultSessionTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg
}

// serverMetrics bundles the server's resolved instruments; with no registry
// all of them are nil and every update is a no-op.
type serverMetrics struct {
	accepted          *metrics.Counter
	sessionsStarted   *metrics.Counter
	sessionsCompleted *metrics.Counter
	frames            *metrics.Counter
	dummyFrames       *metrics.Counter
	wireBytes         *metrics.Counter
	readDeadlineHits  *metrics.Counter
	shedOverload      *metrics.Counter
	shedDropped       *metrics.Counter
	rejectedDuplicate *metrics.Counter
	rejectedDraining  *metrics.Counter
	rejectedRefused   *metrics.Counter
	unattributed      *metrics.Counter
	sessionsEvicted   *metrics.Counter
	activeSessions    *metrics.Gauge
	frameBytes        *metrics.Histogram
}

func newServerMetrics(reg *metrics.Registry) serverMetrics {
	return serverMetrics{
		accepted:          reg.Counter("ingest.accepted"),
		sessionsStarted:   reg.Counter("ingest.sessions_started"),
		sessionsCompleted: reg.Counter("ingest.sessions_completed"),
		frames:            reg.Counter("ingest.frames"),
		dummyFrames:       reg.Counter("ingest.dummy_frames"),
		wireBytes:         reg.Counter("ingest.wire_bytes"),
		readDeadlineHits:  reg.Counter("ingest.read_deadline_hits"),
		shedOverload:      reg.Counter("ingest.shed_overload"),
		shedDropped:       reg.Counter("ingest.shed_dropped"),
		rejectedDuplicate: reg.Counter("ingest.rejected_duplicate"),
		rejectedDraining:  reg.Counter("ingest.rejected_draining"),
		rejectedRefused:   reg.Counter("ingest.rejected_refused"),
		unattributed:      reg.Counter("ingest.unattributed"),
		sessionsEvicted:   reg.Counter("ingest.sessions_evicted"),
		activeSessions:    reg.Gauge("ingest.active_sessions"),
		frameBytes:        reg.Histogram("ingest.frame_bytes", metrics.SizeBuckets()...),
	}
}

// sessionEntry is one sensor's registry state.
type sessionEntry struct {
	delivered int  // frames delivered across all of the sensor's connections
	active    bool // a live connection currently owns the sensor
	// done marks the stream complete: the final ack went out, so the entry
	// exists only to short-circuit a redundant reconnect and is safe to
	// evict. Incomplete entries hold the resume index and are never evicted.
	done bool
	// idleSince is when the entry last lost its owning connection; the
	// eviction clock for done entries.
	idleSince time.Time
}

// sessionRegistry keys session state by sensor id. delivered is the resume
// index handed to a reconnecting sensor; active serializes connections per
// sensor so two links can never interleave one stream. Entries whose stream
// completed are evicted after sitting idle for ttl, so the registry stays
// bounded by the *live* population under sensor churn instead of growing
// with every sensor id ever seen.
type sessionRegistry struct {
	mu        sync.Mutex
	s         map[int]*sessionEntry
	ttl       time.Duration // idle lifetime of done entries; <= 0 keeps forever
	now       func() time.Time
	lastSweep time.Time
	evicted   *metrics.Counter
}

// claim marks sensorID owned and returns its delivered count, waiting up to
// wait for a previous owner (a dying predecessor connection) to release it
// first. abort short-circuits the wait (server closing).
func (r *sessionRegistry) claim(sensorID int, wait time.Duration, abort func() bool) (int, bool) {
	// The wait deadline is real elapsed time (the predecessor connection
	// tears down on the wall clock); only TTL bookkeeping uses r.now.
	deadline := time.Now().Add(wait)
	for {
		r.mu.Lock()
		r.sweepLocked(r.now())
		e := r.s[sensorID]
		if e == nil {
			e = &sessionEntry{}
			r.s[sensorID] = e
		}
		if !e.active {
			e.active = true
			// A fresh connection restarts the completion clock: if it
			// delivers nothing new, serveConn's final ack re-marks done.
			e.done = false
			delivered := e.delivered
			r.mu.Unlock()
			return delivered, true
		}
		r.mu.Unlock()
		if time.Now().After(deadline) || abort() {
			return 0, false
		}
		time.Sleep(time.Millisecond)
	}
}

// sweepLocked evicts entries whose stream completed and whose idle time
// passed the TTL. Amortized: a full map scan runs at most every ttl/4, so
// claim stays O(1) between sweeps. Callers hold r.mu.
func (r *sessionRegistry) sweepLocked(now time.Time) {
	if r.ttl <= 0 || now.Sub(r.lastSweep) < r.ttl/4 {
		return
	}
	r.lastSweep = now
	for id, e := range r.s {
		if e.done && !e.active && now.Sub(e.idleSince) >= r.ttl {
			delete(r.s, id)
			r.evicted.Inc()
		}
	}
}

func (r *sessionRegistry) release(sensorID int) {
	r.mu.Lock()
	e := r.s[sensorID]
	e.active = false
	e.idleSince = r.now()
	r.mu.Unlock()
}

// expiredLocked reports whether e would be evicted by the next sweep: done,
// idle, and past the TTL. Export paths must consult this so a migrating
// gateway and the sweep agree on whether the entry still exists — without
// it, an entry the sweep is about to delete could be exported to another
// node and resurrect a completed stream there. Callers hold r.mu.
func (r *sessionRegistry) expiredLocked(e *sessionEntry, now time.Time) bool {
	return r.ttl > 0 && e.done && !e.active && now.Sub(e.idleSince) >= r.ttl
}

// export removes and returns sensorID's idle entry for migration to another
// node's registry. It fails when the sensor has no entry, when a live
// connection still owns it (a stream cannot move mid-flight), or when the
// entry is already past its eviction TTL (the sweep and the migration must
// agree the session is gone).
func (r *sessionRegistry) export(sensorID int) (delivered int, done, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.s[sensorID]
	if e == nil || e.active || r.expiredLocked(e, r.now()) {
		return 0, false, false
	}
	delete(r.s, sensorID)
	return e.delivered, e.done, true
}

// importEntry seeds the registry with a migrated session. An active entry is
// never overwritten (the live connection's view is authoritative); an idle
// entry merges by keeping the larger delivered index, so a racing duplicate
// import cannot rewind a stream.
func (r *sessionRegistry) importEntry(sensorID, delivered int, done bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.s[sensorID]
	if e == nil {
		r.s[sensorID] = &sessionEntry{delivered: delivered, done: done, idleSince: r.now()}
		return true
	}
	if e.active {
		return false
	}
	if delivered > e.delivered {
		e.delivered = delivered
		e.done = done
	}
	e.idleSince = r.now()
	return true
}

// snapshot lists every idle, unexpired entry (sensor id, delivered, done).
// Active entries are skipped: a drain exports after severing its
// connections, so anything still active belongs to a racing new owner.
func (r *sessionRegistry) snapshot() []SessionState {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]SessionState, 0, len(r.s))
	for id, e := range r.s {
		if e.active || r.expiredLocked(e, now) {
			continue
		}
		out = append(out, SessionState{SensorID: id, Delivered: e.delivered, Done: e.done})
	}
	return out
}

func (r *sessionRegistry) advance(sensorID int) {
	r.mu.Lock()
	r.s[sensorID].delivered++
	r.mu.Unlock()
}

// complete marks the sensor's stream done — called after the final ack is
// on the wire, the same signal the sensor itself takes as end-of-stream.
func (r *sessionRegistry) complete(sensorID int) {
	r.mu.Lock()
	if e := r.s[sensorID]; e != nil {
		e.done = true
	}
	r.mu.Unlock()
}

// size reports the registry's current entry count (for the bounded-registry
// gauge and tests).
func (r *sessionRegistry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.s)
}

// Server is a long-lived, sharded ingest endpoint. Create with NewServer,
// bind with Listen, run with Serve (or, when every connection arrives by
// Handoff, run unbound with ServeHandoffs), and stop with Drain or Close.
// All methods are safe for concurrent use.
type Server struct {
	cfg ServerConfig
	m   serverMetrics

	queues   []chan queued
	sessions sessionRegistry

	rejectSem chan struct{}

	mu        sync.Mutex
	ln        net.Listener
	conns     map[net.Conn]struct{}
	serving   bool
	stopping  bool  // Drain/Close began: listener closed, nothing new accepted
	closed    bool  // hard stop: live connections severed
	acceptErr error // first fatal accept failure

	acceptWG sync.WaitGroup
	// handoffWG counts Handoff calls between their admission check and
	// their enqueue; teardown waits on it before closing the queues.
	handoffWG sync.WaitGroup
	workerWG  sync.WaitGroup
	rejectWG  sync.WaitGroup

	// stop closes when Drain/Close begins (with stopping set); a server
	// without accept loops waits on it before teardown.
	stop chan struct{}
	// finished closes when teardown is complete: accept loops and
	// handoffs joined, queues drained, workers and rejecters exited.
	finished   chan struct{}
	finishOnce sync.Once
}

// queued is one admitted connection awaiting a worker. A connection the
// server's own listener accepted still has its hello unread. A gateway
// handoff arrives with the hello already read (sensorID) and a done
// channel, closed once the server has closed the connection.
type queued struct {
	conn     net.Conn
	sensorID int
	done     chan struct{}
}

func (it queued) handedOff() bool { return it.done != nil }

// NewServer validates cfg, fills defaults, and returns an unbound Server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Handler == nil {
		return nil, errors.New("ingest: ServerConfig.Handler is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		m:         newServerMetrics(cfg.Metrics),
		queues:    make([]chan queued, cfg.Shards),
		sessions:  sessionRegistry{s: map[int]*sessionEntry{}, ttl: cfg.SessionTTL, now: cfg.Clock},
		rejectSem: make(chan struct{}, defaultRejecters),
		conns:     map[net.Conn]struct{}{},
		stop:      make(chan struct{}),
		finished:  make(chan struct{}),
	}
	s.sessions.evicted = s.m.sessionsEvicted
	for i := range s.queues {
		s.queues[i] = make(chan queued, cfg.QueueDepth)
	}
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("ingest.queue_depth", func() int64 {
			var n int64
			for _, q := range s.queues {
				n += int64(len(q))
			}
			return n
		})
		reg.GaugeFunc("ingest.session_registry_size", func() int64 {
			return int64(s.sessions.size())
		})
	}
	return s, nil
}

// Listen binds the server to addr (e.g. "127.0.0.1:0"). It does not start
// serving; call Serve.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping || s.closed {
		ln.Close()
		return ErrClosed
	}
	if s.ln != nil {
		ln.Close()
		return errors.New("ingest: server already listening")
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listener address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve runs the accept loops and worker pools, blocking until the server
// is stopped. Like http.Server.Serve it returns ErrClosed after a
// deliberate Drain/Close, and the underlying accept error if the listener
// failed.
func (s *Server) Serve() error {
	return s.serve(true)
}

// ServeHandoffs runs the worker pools without a listener, blocking until
// the server is stopped, for a server whose every connection arrives by
// Handoff (a cluster node behind its gateway). It returns ErrClosed after
// a deliberate Drain/Close. A server bound with Listen uses Serve instead:
// ServeHandoffs never accepts on a listener.
func (s *Server) ServeHandoffs() error {
	return s.serve(false)
}

// serve starts one worker pool per shard and, when accept is set, one
// accept loop per shard on the bound listener, then waits for teardown.
func (s *Server) serve(accept bool) error {
	s.mu.Lock()
	if accept && s.ln == nil {
		s.mu.Unlock()
		return errors.New("ingest: Serve before Listen")
	}
	if s.serving {
		s.mu.Unlock()
		return errors.New("ingest: Serve called twice")
	}
	if s.stopping || s.closed {
		s.mu.Unlock()
		s.stopUnserved()
		return ErrClosed
	}
	s.serving = true
	ln := s.ln
	s.mu.Unlock()

	for i := range s.queues {
		q := s.queues[i]
		for w := 0; w < s.cfg.WorkersPerShard; w++ {
			s.workerWG.Add(1)
			go s.worker(q)
		}
		if accept {
			s.acceptWG.Add(1)
			go s.acceptLoop(i, ln)
		}
	}
	if !accept {
		<-s.stop
	}
	s.finishOnce.Do(s.teardown)

	s.mu.Lock()
	err := s.acceptErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return ErrClosed
}

// teardown runs exactly once, whatever triggered the stop: join the accept
// loops (listener closed) and the in-flight handoffs, close the queues so
// workers drain and exit, then join workers and in-flight rejecters. No
// send can follow the close: accept loops exit, and Handoff refuses, only
// once stopping is set.
func (s *Server) teardown() {
	s.acceptWG.Wait()
	s.handoffWG.Wait()
	for _, q := range s.queues {
		close(q)
	}
	s.workerWG.Wait()
	s.rejectWG.Wait()
	close(s.finished)
}

// stopUnserved tears down a server that stopped before Serve ran. Handoffs
// may have queued connections meanwhile, so one worker per queue answers
// them the way a stopping server's workers would.
func (s *Server) stopUnserved() {
	s.finishOnce.Do(func() {
		for _, q := range s.queues {
			s.workerWG.Add(1)
			go s.worker(q)
		}
		s.teardown()
	})
}

// Drain gracefully stops the server: the listener closes, queued
// connections that never started are refused with StatusDraining, and
// in-flight sessions run to completion. If ctx expires first, Drain
// escalates to a hard Close so teardown stays bounded, and returns the
// context's error.
func (s *Server) Drain(ctx context.Context) error {
	s.beginStop(false)
	select {
	case <-s.finished:
		return nil
	case <-ctx.Done():
		s.beginStop(true)
		<-s.finished
		return ctx.Err()
	}
}

// Close hard-stops the server: the listener closes and every live
// connection is severed, failing in-flight sessions with their read/write
// errors. Close waits for all server goroutines to exit. It is idempotent.
func (s *Server) Close() error {
	s.beginStop(true)
	<-s.finished
	return nil
}

// beginStop transitions to stopping (and, when kill is set, to closed,
// severing live connections). If Serve was never started there is no
// teardown to wait for, so finished closes here.
func (s *Server) beginStop(kill bool) {
	s.mu.Lock()
	if !s.stopping {
		s.stopping = true
		close(s.stop)
		if s.ln != nil {
			s.ln.Close()
		}
	}
	if kill && !s.closed {
		s.closed = true
		for c := range s.conns {
			c.Close()
		}
	}
	serving := s.serving
	s.mu.Unlock()
	if !serving {
		s.stopUnserved()
	}
}

func (s *Server) isStopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a live connection for Close to sever; it reports false
// when the server is already closed.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// finish retires an admitted connection: untrack and close it, and for a
// handoff tell the gateway the server is done with it.
func (s *Server) finish(it queued) {
	s.untrack(it.conn)
	it.conn.Close()
	if it.done != nil {
		close(it.done)
	}
}

// Handoff gives the server a connection whose hello a gateway has already
// read, identifying sensorID. It takes the same admission path as a
// connection the server's own listener accepted (see admit), and the
// worker that serves it skips the hello read. On success the server owns
// conn and closes the returned channel once it has closed conn. A stopping
// or closed server refuses with ErrClosed and leaves conn to the caller.
func (s *Server) Handoff(conn net.Conn, sensorID int) (<-chan struct{}, error) {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.handoffWG.Add(1)
	s.mu.Unlock()
	defer s.handoffWG.Done()
	done := make(chan struct{})
	shard := int(uint(sensorID) % uint(len(s.queues)))
	s.admit(shard, queued{conn: conn, sensorID: sensorID, done: done})
	return done, nil
}

// acceptLoop admits every accepted connection until the listener closes.
func (s *Server) acceptLoop(shard int, ln net.Listener) {
	defer s.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isStopping() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.mu.Lock()
			if s.acceptErr == nil {
				s.acceptErr = fmt.Errorf("ingest: accept: %w", err)
			}
			s.mu.Unlock()
			s.beginStop(false)
			return
		}
		if !s.admit(shard, queued{conn: conn}) {
			return
		}
	}
}

// admit is the one admission path for listener-accepted and handed-off
// connections alike: count it, track it for Close, then queue it — this
// shard first, sweeping the others when it is full — or, with every queue
// full, shed it with a typed reject instead of an unbounded goroutine. It
// reports false, closing the connection, when the server is closed.
func (s *Server) admit(shard int, it queued) bool {
	s.m.accepted.Inc()
	if !s.track(it.conn) {
		s.finish(it)
		return false
	}
	if !s.enqueue(shard, it) {
		s.shed(it)
	}
	return true
}

// enqueue offers it to this shard's queue first, then sweeps the others.
func (s *Server) enqueue(shard int, it queued) bool {
	n := len(s.queues)
	for off := 0; off < n; off++ {
		select {
		case s.queues[(shard+off)%n] <- it:
			return true
		default:
		}
	}
	return false
}

// shed rejects an overload-shed connection with StatusOverloaded. The
// reject itself costs a bounded goroutine (it must read the hello before
// answering — closing with the hello unread would send a TCP reset that
// can destroy the in-flight reject bytes); past the rejecter bound the
// connection is dropped outright.
func (s *Server) shed(it queued) {
	s.m.shedOverload.Inc()
	select {
	case s.rejectSem <- struct{}{}:
		s.rejectWG.Add(1)
		go func() {
			defer s.rejectWG.Done()
			defer func() { <-s.rejectSem }()
			s.rejectConn(it, StatusOverloaded)
		}()
	default:
		s.m.shedDropped.Inc()
		s.finish(it)
	}
}

// rejectConn consumes the peer's hello (best effort, short deadline) unless
// a gateway already read it, and answers with a typed reject status before
// closing.
func (s *Server) rejectConn(it queued, st Status) {
	defer s.finish(it)
	timeout := min(s.cfg.IOTimeout, time.Second)
	if !it.handedOff() {
		var hello [helloLen]byte
		if err := seccomm.ReadFullDeadline(it.conn, hello[:], timeout); err != nil {
			return
		}
	}
	writeAck(it.conn, st, 0, timeout)
}

// worker serves queued connections until the queue closes. During a drain,
// connections that never started a session are refused with StatusDraining;
// after a hard close they are dropped (Close already severed them).
func (s *Server) worker(q chan queued) {
	defer s.workerWG.Done()
	for it := range q {
		switch {
		case s.isClosed():
			s.finish(it)
		case s.isStopping():
			s.m.rejectedDraining.Inc()
			s.rejectConn(it, StatusDraining)
		default:
			s.serveConn(it)
		}
	}
}

// serveConn runs one connection's full lifecycle: hello (unless handed
// off), claim, session open, resume ack, frame loop, final ack.
func (s *Server) serveConn(it queued) {
	defer s.finish(it)
	conn := it.conn
	timeout := s.cfg.IOTimeout
	sensorID := it.sensorID
	if !it.handedOff() {
		id, err := ReadHello(conn, timeout)
		if err != nil {
			s.m.unattributed.Inc()
			s.cfg.Handler.Unattributed(fmt.Errorf("hello: %w", err))
			return
		}
		sensorID = id
	}
	delivered, ok := s.sessions.claim(sensorID, s.cfg.ClaimWait, s.isClosed)
	if !ok {
		s.m.rejectedDuplicate.Inc()
		s.cfg.Handler.Rejected(sensorID, StatusDuplicate)
		writeAck(conn, StatusDuplicate, 0, timeout)
		return
	}
	defer s.sessions.release(sensorID)

	sess, err := s.cfg.Handler.Open(sensorID, delivered)
	if err != nil {
		s.m.rejectedRefused.Inc()
		writeAck(conn, StatusRefused, 0, timeout)
		return
	}
	s.m.sessionsStarted.Inc()
	s.m.activeSessions.Add(1)
	defer s.m.activeSessions.Add(-1)
	total := sess.Total()
	completed := false
	if stg := s.cfg.Stager; stg != nil {
		stg.Admit(sensorID, delivered, total)
		defer func() { stg.SessionEnd(sensorID, completed) }()
	}

	if err := writeAck(conn, StatusAccept, uint32(delivered), timeout); err != nil {
		sess.Close(fmt.Errorf("hello ack: %w", err))
		return
	}
	// Buffered frame reads: clients gather frames into batched writes, and
	// reading them back one socket read per frame would forfeit the savings.
	fr := seccomm.NewFrameReader(conn, 0)
	for fi := delivered; fi < total; {
		msg, err := fr.ReadFrame(timeout)
		if err != nil {
			if seccomm.IsTimeout(err) {
				s.m.readDeadlineHits.Inc()
			}
			sess.Close(&FrameError{Index: fi, Err: err})
			return
		}
		s.m.wireBytes.Add(int64(len(msg)))
		s.m.frameBytes.Observe(int64(len(msg)))
		if err := sess.Frame(fi, msg); err != nil {
			// A pacer dummy occupies a wire slot but carries no data: it is
			// discarded here without advancing the stream index or the
			// registry, so resume/delivery accounting is identical with
			// pacing on or off.
			if errors.Is(err, ErrDummyFrame) {
				s.m.dummyFrames.Inc()
				continue
			}
			sess.Close(err)
			return
		}
		s.sessions.advance(sensorID)
		s.m.frames.Inc()
		if stg := s.cfg.Stager; stg != nil {
			stg.StageFrame(sensorID, fi, msg)
		}
		fi++
	}
	if err := writeAck(conn, StatusAccept, uint32(total), timeout); err != nil {
		sess.Close(fmt.Errorf("final ack: %w", err))
		return
	}
	// The final ack is on the wire: the stream is complete, and the
	// registry entry becomes eligible for TTL eviction.
	s.sessions.complete(sensorID)
	completed = true
	s.m.sessionsCompleted.Inc()
	sess.Close(nil)
}
