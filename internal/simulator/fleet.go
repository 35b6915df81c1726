package simulator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/reconstruct"
)

// Fleet simulation: the paper's deployments are networks of sensors —
// FarmBeats fields, ZebraNet herds (§2.1, §3.3) — all reporting to one base
// station over a shared medium. Each sensor holds its own key and encoder;
// the server demultiplexes by a cleartext sensor id, which is realistic
// (radio MACs identify senders) and is what lets the attacker attribute
// messages to sensors, an assumption the threat model makes explicitly
// (§3.1). RunFleetContext drives every sensor concurrently over its own
// real TCP connection and aggregates the eavesdropper's view across the
// fleet. A one-sensor fleet is the paper's single sensor/server socket
// testbed.
//
// The transport is the ingest package: the base station is an
// ingest.Server (sharded accept loops, bounded queues, typed backpressure,
// a session registry that hands reconnecting sensors their resume index),
// and each sensor is an ingest.Client (dial backoff, per-frame deadlines,
// write retries, redial-and-resume). The fleet wraps pipeline.go's sensor
// and station in that contract.

// FleetConfig drives a multi-sensor run. All sensors share the task shape
// (T, d, format) and encoder kind but hold distinct keys.
type FleetConfig struct {
	// Base carries the shared task parameters (Dataset supplies the
	// metadata and the per-sensor sequence partition). Base.Metrics, when
	// set, receives the transport's families: ingest.* from the server,
	// ingest.client.* from every sensor. Per-sensor figures are in
	// FleetResult.Sensors.
	Base RunConfig
	// Sensors is the fleet size; the Base dataset's sequences are dealt
	// round-robin across sensors.
	Sensors int

	// The transport knobs below are passed to each sensor's
	// ingest.ClientConfig (IOTimeout also to the ingest.ServerConfig);
	// zero values select the ingest defaults, quoted here. The caller's
	// context bounds the whole run.

	// DialTimeout bounds a single TCP connect attempt (default 2s).
	DialTimeout time.Duration
	// DialAttempts is how many connect attempts a sensor makes before
	// reporting failure (default 4). Attempts are separated by an
	// exponential backoff starting at DialBackoff (default 25ms, doubling).
	DialAttempts int
	DialBackoff  time.Duration
	// IOTimeout is the per-frame read/write deadline on both sides of the
	// link (default 5s). A peer that stalls longer than this fails its own
	// status instead of hanging the run.
	IOTimeout time.Duration
	// ReconnectAttempts is how many times a sensor may redial and resume
	// after a transport failure mid-stream (default 0: a dropped link fails
	// the sensor, the pre-resume behavior). Injected sensor faults
	// (NeverDial, DieAfterFrames, StallAfterFrames) are never resumed — a
	// dead node stays dead.
	ReconnectAttempts int

	// Faults injects transport failures for resilience testing (nil = none).
	Faults *FleetFaults

	// Pacing configures the sensors' frame-release schedule and the timing
	// side-channel instrumentation. The zero value keeps the legacy batched
	// release (PaceOff), whose fixed-seed results stay byte-identical to the
	// direct pipeline.
	Pacing FleetPacing
}

// FleetPacing models the physical release timing of a duty-cycled sensor
// and selects the defense applied to it. With Mode == PaceLive the sensor
// transmits each frame on its data-driven schedule — the gap before a frame
// is BaseGap + PerSample×k, where k is the number of measurements its
// adaptive policy collected for that batch (energy recovery and collection
// time scale with the work done) — which is exactly the timing side-channel:
// k tracks signal volatility, so gaps classify events even though AGE fixed
// every frame's size. PaceConstant/PaceJitter release one sealed frame per
// (jittered) Interval instead, covering empty slots with sealed dummies the
// server discards after unsealing.
type FleetPacing struct {
	// Mode is the release discipline (default PaceOff: batched, as fast as
	// the link accepts).
	Mode ingest.PaceMode
	// Interval and JitterFrac configure PaceConstant/PaceJitter release.
	Interval   time.Duration
	JitterFrac float64
	// BaseGap and PerSample define the data-driven generation schedule used
	// by PaceLive (enforced on the wire) and by the paced modes (to decide
	// when the next real frame becomes available).
	BaseGap   time.Duration
	PerSample time.Duration
	// Observer, when non-nil, is the passive wire tap: it is called once
	// per frame the server reads off the link — real or dummy, before
	// unsealing, exactly what an eavesdropper sees — with the event label
	// the observation is attributed to (the label of the in-flight real
	// frame; ground truth an attacker has at training time).
	Observer func(sensorID, label int)
}

// active reports whether frames flow through the pacer (and carry the
// in-payload real/dummy marker).
func (p FleetPacing) active() bool { return p.Mode != ingest.PaceOff }

// The pace modes, re-exported so FleetPacing literals don't need an ingest
// import.
const (
	PaceOff      = ingest.PaceOff
	PaceLive     = ingest.PaceLive
	PaceConstant = ingest.PaceConstant
	PaceJitter   = ingest.PaceJitter
)

// FleetFaults injects transport faults by sensor id, modelling the failure
// modes of a lossy deployment: a node that dies mid-stream, a node that
// never comes up, a radio that goes quiet, a base station that drops a link.
type FleetFaults struct {
	// NeverDial marks sensors that never connect.
	NeverDial map[int]bool
	// DieAfterFrames closes the sensor's connection abruptly after it has
	// written the given number of frames (counted across the sensor's
	// lifetime: a dead node does not come back).
	DieAfterFrames map[int]int
	// StallAfterFrames keeps the sensor's connection open but silent after
	// the given number of frames, forcing the server's read deadline to
	// fire. The stall is bounded (a little over two IO timeouts), so the
	// run still terminates.
	StallAfterFrames map[int]int
	// ServerCloseAfterFrames makes the server drop the sensor's connection
	// after processing the given number of frames on it. The count is per
	// connection — a flaky base station link, not a banned sensor — so a
	// sensor with ReconnectAttempts can redial and make progress.
	ServerCloseAfterFrames map[int]int
}

// FleetSensorStatus reports one sensor's outcome, successful or not. A run
// with a dead sensor completes with that sensor's status carrying the error
// while the rest of the fleet delivers normally.
type FleetSensorStatus struct {
	// Sensor is the sensor id.
	Sensor int
	// Assigned is how many sequences the partition gave this sensor.
	Assigned int
	// Delivered is how many frames the server successfully decoded and
	// reconstructed.
	Delivered int
	// DialAttempts is how many TCP connect attempts the sensor made,
	// summed across reconnects.
	DialAttempts int
	// Reconnects is how many times the sensor redialed and resumed after a
	// transport failure.
	Reconnects int
	// SensorErr and ServerErr carry the two sides' failures ("" = none).
	SensorErr string
	ServerErr string
}

// OK reports whether the sensor delivered everything with no errors.
func (st FleetSensorStatus) OK() bool {
	return st.SensorErr == "" && st.ServerErr == "" && st.Delivered == st.Assigned
}

// Err summarizes the status's failures, or "" when OK.
func (st FleetSensorStatus) Err() string {
	switch {
	case st.SensorErr != "" && st.ServerErr != "":
		return fmt.Sprintf("sensor: %s; server: %s", st.SensorErr, st.ServerErr)
	case st.SensorErr != "":
		return "sensor: " + st.SensorErr
	case st.ServerErr != "":
		return "server: " + st.ServerErr
	case st.Delivered != st.Assigned:
		return fmt.Sprintf("delivered %d of %d frames", st.Delivered, st.Assigned)
	}
	return ""
}

// FleetResult aggregates the fleet run.
type FleetResult struct {
	// PerSensorMAE indexes reconstruction error by sensor id (the mean over
	// the frames that actually arrived; 0 when none did).
	PerSensorMAE []float64
	// SizesByLabel pools the eavesdropper's observations across the whole
	// fleet (the attacker sees every flow).
	SizesByLabel map[int][]int
	// Messages counts frames the server demultiplexed.
	Messages int
	// Sensors reports per-sensor delivery status, including failures.
	Sensors []FleetSensorStatus
	// Failed counts sensors whose status is not OK.
	Failed int
	// Unattributed records connection failures that happened before the
	// hello identified a sensor (e.g. a peer that connected and went
	// silent).
	Unattributed []string
	// DummyFrames counts pacer cover frames the fleet sent; the server
	// dropped them after unsealing, so they never appear in Messages.
	DummyFrames int
	// RealFramesSent counts real frames the clients released (the
	// denominator of MeanAoIMicros).
	RealFramesSent int
	// AoIMicrosTotal and AoIMicrosMax account the release schedule's
	// freshness cost: each real frame's age of information (time from
	// data-driven availability to wire release) in microseconds, summed and
	// maxed across the fleet. Zero under PaceOff.
	AoIMicrosTotal int64
	AoIMicrosMax   int64
}

// MeanAoIMicros is the fleet-wide mean age of information per real frame at
// release, in microseconds.
func (r *FleetResult) MeanAoIMicros() float64 {
	if r.RealFramesSent == 0 {
		return 0
	}
	return float64(r.AoIMicrosTotal) / float64(r.RealFramesSent)
}

// fleetFrameHook, when non-nil, observes every sealed frame the server
// reads, before it is opened. Tests use it to capture wire nonces; it must
// be set before the run starts and not mutated during it.
var fleetFrameHook func(sensorID int, msg []byte)

// RunFleetContext partitions the configured dataset across n concurrent
// sensors, each streaming encrypted frames over its own TCP loopback
// connection to an ingest.Server, and returns the pooled attacker view plus
// per-sensor status. Individual sensor failures degrade the result (see
// FleetResult.Sensors) rather than aborting the run; it returns a non-nil
// error only for setup failures, run cancellation, or a fleet in which
// every sensor failed. Cancelling ctx (or its deadline expiring)
// hard-closes the server (listener and every live connection) and aborts
// every sensor, unblocking all goroutines; the partial result gathered so
// far is returned with an error wrapping the context's.
func RunFleetContext(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	n := cfg.Sensors
	if n < 1 {
		return nil, fmt.Errorf("simulator: fleet needs at least one sensor")
	}
	if cfg.Base.Dataset == nil || len(cfg.Base.Dataset.Sequences) < n {
		return nil, fmt.Errorf("simulator: dataset too small for %d sensors", n)
	}
	// Zero transport knobs fall through to the ingest client and server
	// defaults; only the IO deadline is resolved here, because the drain
	// and stall bounds below are multiples of it.
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = ingest.DefaultIOTimeout
	}

	// Partition sequences round-robin.
	parts := make([][]int, n) // sequence indices per sensor
	for i := range cfg.Base.Dataset.Sequences {
		parts[i%n] = append(parts[i%n], i)
	}

	res := &FleetResult{
		PerSensorMAE: make([]float64, n),
		SizesByLabel: map[int][]int{},
		Sensors:      make([]FleetSensorStatus, n),
	}
	for i := range res.Sensors {
		res.Sensors[i].Sensor = i
		res.Sensors[i].Assigned = len(parts[i])
	}
	var mu sync.Mutex // guards res and accs from server/sensor goroutines
	// accs accumulate per-sensor reconstruction error across connections.
	accs := make([]reconstruct.Accumulator, n)

	handler := &fleetHandler{cfg: cfg, parts: parts, res: res, mu: &mu, accs: accs}
	// Size the server so a healthy fleet never queues or sheds: enough
	// workers for every sensor plus reconnect transients. Results must be
	// byte-identical to the direct pipeline; backpressure is exercised by
	// cmd/ageload and the ingest tests, not here.
	shards := 4
	if n < shards {
		shards = n
	}
	srv, err := ingest.NewServer(ingest.ServerConfig{
		Handler:         handler,
		Shards:          shards,
		WorkersPerShard: (2*n+shards-1)/shards + 1,
		QueueDepth:      2 * n,
		IOTimeout:       cfg.IOTimeout,
		Metrics:         cfg.Base.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	addr := srv.Addr().String()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	// Cancellation (the caller's cancel or deadline) hard-closes the
	// server — listener and every live connection — so no server-side
	// read or write outlives the run. Sensor-side connections are closed
	// by the client's own context watchdog.
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		select {
		case <-ctx.Done():
			srv.Close()
		case <-watchDone:
		}
	}()

	// Sensors: one goroutine each, own key and encoder state. A sensor
	// failure lands in its status; it never tears down the rest of the run.
	var sensorWG sync.WaitGroup
	sensorWG.Add(n)
	for s := 0; s < n; s++ {
		go func(sensorID int) {
			defer sensorWG.Done()
			stats, err := runFleetSensor(ctx, sensorID, addr, cfg, parts[sensorID])
			mu.Lock()
			res.Sensors[sensorID].DialAttempts = stats.DialAttempts
			res.Sensors[sensorID].Reconnects = stats.Reconnects
			res.DummyFrames += stats.DummyFrames
			res.RealFramesSent += stats.FramesSent
			res.AoIMicrosTotal += stats.AoIMicrosTotal
			if stats.AoIMicrosMax > res.AoIMicrosMax {
				res.AoIMicrosMax = stats.AoIMicrosMax
			}
			if err != nil {
				res.Sensors[sensorID].SensorErr = err.Error()
			}
			mu.Unlock()
		}(s)
	}

	// Shutdown sequence, every step bounded. Sensors finish first (dial
	// attempts and IO deadlines bound them); because the protocol blocks
	// each sensor on its hello ack, a returned sensor means its connection
	// was either fully served or is in deadline-bounded error teardown —
	// which is exactly what Drain waits for. The drain context is a
	// backstop: on expiry Drain escalates to a hard close.
	sensorWG.Wait()
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 2*cfg.IOTimeout+time.Second)
	srv.Drain(drainCtx)
	drainCancel()
	close(watchDone)
	watchWG.Wait()
	err = <-serveErr
	if errors.Is(err, ingest.ErrClosed) {
		err = nil // deliberate shutdown, not a fault
	}
	cause := ctx.Err() // read before our own cancel() below masks it
	cancel()

	// All sessions have closed: fold the per-sensor accumulators into the
	// result without further locking.
	for i := range accs {
		res.PerSensorMAE[i] = accs[i].MAE()
	}

	// Count failures on every path so a partial result returned alongside
	// an error still carries an accurate Failed tally.
	var firstFailure string
	for _, st := range res.Sensors {
		if !st.OK() {
			res.Failed++
			if firstFailure == "" {
				firstFailure = fmt.Sprintf("sensor %d: %s", st.Sensor, st.Err())
			}
		}
	}

	if err != nil {
		return res, fmt.Errorf("simulator: fleet: %w", err)
	}
	if cause != nil {
		return res, fmt.Errorf("simulator: fleet cancelled: %w", cause)
	}
	if res.Failed == n {
		return res, fmt.Errorf("simulator: all %d sensors failed (%s)", n, firstFailure)
	}
	return res, nil
}

// fleetHandler is the base station's application logic behind the ingest
// server: it validates sensor ids, builds the per-sensor decode pipeline,
// and records outcomes in the shared FleetResult.
type fleetHandler struct {
	cfg   FleetConfig
	parts [][]int
	res   *FleetResult
	mu    *sync.Mutex
	accs  []reconstruct.Accumulator
}

func (h *fleetHandler) setServerErr(sensorID int, err error) {
	h.mu.Lock()
	h.res.Sensors[sensorID].ServerErr = err.Error()
	h.mu.Unlock()
}

// Open implements ingest.Handler: it admits known sensors, builds their
// station, and clears any failure a previous connection left behind.
func (h *fleetHandler) Open(sensorID, delivered int) (ingest.Session, error) {
	if sensorID < 0 || sensorID >= len(h.parts) {
		err := fmt.Errorf("unknown sensor %d", sensorID)
		h.mu.Lock()
		h.res.Unattributed = append(h.res.Unattributed, err.Error())
		h.mu.Unlock()
		return nil, err
	}
	st, err := newStation(h.cfg.Base, sensorID, h.cfg.Pacing.active())
	if err != nil {
		h.setServerErr(sensorID, err)
		return nil, err
	}
	h.mu.Lock()
	h.res.Sensors[sensorID].ServerErr = ""
	h.mu.Unlock()
	return &fleetSession{h: h, sensorID: sensorID, st: st}, nil
}

// Rejected implements ingest.Handler. Only duplicates reach it: a sensor
// id still claimed by a live connection after the claim wait.
func (h *fleetHandler) Rejected(sensorID int, status ingest.Status) {
	if status == ingest.StatusDuplicate && sensorID >= 0 && sensorID < len(h.res.Sensors) {
		h.mu.Lock()
		h.res.Sensors[sensorID].ServerErr = "duplicate connection for sensor"
		h.mu.Unlock()
	}
}

// Unattributed implements ingest.Handler: a connection that failed before
// its hello identified a sensor.
func (h *fleetHandler) Unattributed(err error) {
	h.mu.Lock()
	h.res.Unattributed = append(h.res.Unattributed, err.Error())
	h.mu.Unlock()
}

// fleetSession runs one connection's frames through a station, adding the
// server-side fault injection, the wire tap and the result bookkeeping.
type fleetSession struct {
	h          *fleetHandler
	sensorID   int
	st         *station
	connFrames int // frames processed on THIS connection (fault accounting)
}

// Total implements ingest.Session.
func (s *fleetSession) Total() int { return len(s.h.parts[s.sensorID]) }

// Frame implements ingest.Session: score frame fi into the shared result.
func (s *fleetSession) Frame(fi int, msg []byte) error {
	h := s.h
	if h.cfg.Faults != nil {
		if k, ok := h.cfg.Faults.ServerCloseAfterFrames[s.sensorID]; ok && s.connFrames >= k {
			return fmt.Errorf("fault injection: server closed link after %d frames", k)
		}
	}
	if fleetFrameHook != nil {
		fleetFrameHook(s.sensorID, msg)
	}
	seq := h.cfg.Base.Dataset.Sequences[h.parts[s.sensorID][fi]]
	// The passive wire tap sees exactly what an eavesdropper sees: every
	// sealed frame, real or dummy, at arrival — before any unsealing. The
	// observation is attributed to the in-flight real frame's event label
	// (ground truth available to the attacker at training time).
	if obs := h.cfg.Pacing.Observer; obs != nil {
		obs(s.sensorID, seq.Label)
	}
	// A cover frame's ErrDummyFrame tells the ingest server to discard it.
	mae, err := s.st.step(msg, seq.Values)
	if err != nil {
		return fmt.Errorf("frame %d: %w", fi, err)
	}
	s.connFrames++
	h.mu.Lock()
	h.accs[s.sensorID].Add(mae, 1)
	h.res.SizesByLabel[seq.Label] = append(h.res.SizesByLabel[seq.Label], len(msg))
	h.res.Messages++
	h.res.Sensors[s.sensorID].Delivered++
	h.mu.Unlock()
	return nil
}

// Close implements ingest.Session: a failed connection's error lands in
// the sensor's status (a later reconnect supersedes it).
func (s *fleetSession) Close(err error) {
	if err != nil {
		s.h.setServerErr(s.sensorID, err)
	}
}

// runFleetSensor streams one sensor's assigned sequences through an
// ingest.Client, honoring the configured fault plan. Its transport counts
// land in the ingest.client.* family of Base.Metrics; it returns the
// client's full transport accounting.
func runFleetSensor(ctx context.Context, sensorID int, addr string, cfg FleetConfig, seqIdx []int) (ingest.ClientStats, error) {
	if cfg.Faults != nil && cfg.Faults.NeverDial[sensorID] {
		return ingest.ClientStats{}, errors.New("fault injection: sensor never dialed")
	}
	// ONE sensor, and so one sealer, outlives every redial.
	sen, err := newSensor(cfg.Base, sensorID, cfg.Pacing.active())
	if err != nil {
		return ingest.ClientStats{}, err
	}
	src := &fleetFrameSource{cfg: cfg, sensorID: sensorID, seqIdx: seqIdx, sen: sen}
	ccfg := ingest.ClientConfig{
		Addr:              addr,
		SensorID:          sensorID,
		DialTimeout:       cfg.DialTimeout,
		DialAttempts:      cfg.DialAttempts,
		DialBackoff:       cfg.DialBackoff,
		IOTimeout:         cfg.IOTimeout,
		ReconnectAttempts: cfg.ReconnectAttempts,
		Metrics:           cfg.Base.Metrics,
	}
	if cfg.Pacing.active() {
		// Pacer decisions (jitter schedule, dial jitter) draw from a seed
		// derived from the run seed, keeping fixed-seed runs deterministic.
		ccfg.Seed = cfg.Base.Seed + int64(sensorID)*2654435761 + 1
		ccfg.Pacer = ingest.PacerConfig{
			Mode:       cfg.Pacing.Mode,
			Interval:   cfg.Pacing.Interval,
			JitterFrac: cfg.Pacing.JitterFrac,
			Dummy:      sen.dummy,
		}
	}
	client := ingest.NewClient(ccfg)
	return client.Run(ctx, src)
}

// fleetFrameSource feeds a sensor's frames to the ingest client, adding
// resume replay and client-side fault injection (a die or stall).
type fleetFrameSource struct {
	cfg      FleetConfig
	sensorID int
	seqIdx   []int
	sen      *sensor
	next     int
	lastGap  time.Duration
}

// Total implements ingest.FrameSource.
func (s *fleetFrameSource) Total() int { return len(s.seqIdx) }

// Seek implements ingest.FrameSource: replay the sampling stream up to the
// resume point so the remaining sequences are sampled exactly as an
// uninterrupted run would sample them — resume is invisible in the
// delivered data.
func (s *fleetFrameSource) Seek(resume int) error {
	s.sen.rng = newSeededRand(s.sen.seed)
	for _, si := range s.seqIdx[:resume] {
		s.sen.policy.Sample(s.cfg.Base.Dataset.Sequences[si].Values, s.sen.rng)
	}
	s.next = resume
	return nil
}

// Next implements ingest.FrameSource.
func (s *fleetFrameSource) Next(ctx context.Context) ([]byte, error) {
	fi := s.next
	if s.cfg.Faults != nil {
		if k, ok := s.cfg.Faults.DieAfterFrames[s.sensorID]; ok && fi >= k {
			return nil, ingest.Terminal(fmt.Errorf("fault injection: died after %d frames", k))
		}
		if k, ok := s.cfg.Faults.StallAfterFrames[s.sensorID]; ok && fi >= k {
			stallSensor(ctx, s.cfg.IOTimeout)
			return nil, ingest.Terminal(fmt.Errorf("fault injection: stalled after %d frames", k))
		}
	}
	msg, collected, err := s.sen.step(s.cfg.Base.Dataset.Sequences[s.seqIdx[fi]].Values)
	if err != nil {
		return nil, ingest.Terminal(err)
	}
	// The data-driven generation schedule: a batch of k collected samples
	// keeps the node busy (collecting, recovering energy) for BaseGap +
	// PerSample×k before the frame can leave. This is the quantity that
	// leaks: k tracks the event, and PaceLive puts it on the wire.
	s.lastGap = s.cfg.Pacing.BaseGap + time.Duration(collected)*s.cfg.Pacing.PerSample
	s.next++
	return msg, nil
}

// LastGap implements ingest.TimedSource: the generation delay of the frame
// the latest Next call produced.
func (s *fleetFrameSource) LastGap() time.Duration { return s.lastGap }

// stallSensor holds the connection open and silent long enough for the
// server's read deadline to fire, then returns so the run can finish.
func stallSensor(ctx context.Context, ioTimeout time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(2*ioTimeout + 50*time.Millisecond):
	}
}
