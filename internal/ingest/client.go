package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/metrics"
	"repro/internal/seccomm"
)

// Client transport defaults, applied when the corresponding ClientConfig
// knob is zero (the IO deadline default is DefaultIOTimeout).
const (
	defaultDialTimeout    = 2 * time.Second
	defaultDialAttempts   = 4
	defaultDialBackoff    = 25 * time.Millisecond
	defaultWriteAttempts  = 2
	defaultRejectAttempts = 8
	// dialBackoffMax caps the dial backoff, raised to DialBackoff when that
	// is larger.
	dialBackoffMax = 2 * time.Second
)

// ClientConfig configures one sensor's Client.
type ClientConfig struct {
	// Addr is the server's address.
	Addr string
	// SensorID identifies the sensor in the cleartext hello.
	SensorID int

	// DialTimeout bounds a single TCP connect attempt (default 2s).
	DialTimeout time.Duration
	// DialAttempts is how many connect attempts one stream makes before
	// reporting failure (default 4), separated by an exponential backoff
	// starting at DialBackoff (default 25ms, doubling) and capped at 2s,
	// or at DialBackoff when that is larger. Each pause is jittered — drawn
	// uniformly from [backoff/2, backoff] by the client's seeded RNG — so
	// a fleet that loses its server does not redial in lockstep.
	DialAttempts int
	DialBackoff  time.Duration
	// IOTimeout is the per-frame read/write deadline (default 5s).
	IOTimeout time.Duration
	// WriteAttempts bounds per-frame write retries on a timeout (default
	// 2). Non-timeout errors are never retried.
	WriteAttempts int
	// ReconnectAttempts is how many times Run may redial and resume after
	// a transport failure mid-stream (default 0: a dropped link fails the
	// run). Terminal errors are never resumed.
	ReconnectAttempts int
	// RejectAttempts is how many transient server rejects (overloaded,
	// draining, duplicate) Run retries before giving up (default 8).
	// Rejects spend this budget, not ReconnectAttempts: a loaded server
	// asking for backoff is not a broken link.
	RejectAttempts int
	// RejectBackoff is the pause after a transient reject (default
	// DialBackoff). Unlike dial backoff it does not grow: the server
	// already sheds load; the client only needs to spread retries.
	RejectBackoff time.Duration
	// WriteBatch gathers up to this many frames into one TCP write
	// (default 1: one write per frame). The wire byte stream is identical
	// either way — frames stay individually length-prefixed — but gathering
	// amortizes the syscall and deadline bookkeeping, which dominates at
	// small frame sizes. Capped at maxWriteBatch. Applies only under
	// PaceOff: every other pace mode writes one frame per release slot.
	WriteBatch int

	// Seed drives the client's random decisions: dial-backoff jitter and
	// the pacer's jittered release schedule. Zero derives a per-sensor
	// seed from SensorID, so every client is deterministic for a fixed
	// config yet no two sensors share a jitter stream.
	Seed int64

	// Pacer sets when the release loop puts frames on the wire. The zero
	// value (PaceOff) sends as fast as the link accepts, WriteBatch frames
	// per write; the other modes decouple release timing from generation
	// timing, one frame per slot, to close the link's timing side-channel.
	Pacer PacerConfig

	// Metrics, when set, receives the ingest.client.* instrument family.
	Metrics *metrics.Registry
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = defaultDialAttempts
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = defaultDialBackoff
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = DefaultIOTimeout
	}
	if cfg.WriteAttempts <= 0 {
		cfg.WriteAttempts = defaultWriteAttempts
	}
	if cfg.RejectAttempts <= 0 {
		cfg.RejectAttempts = defaultRejectAttempts
	}
	if cfg.RejectBackoff <= 0 {
		cfg.RejectBackoff = cfg.DialBackoff
	}
	if cfg.WriteBatch <= 0 {
		cfg.WriteBatch = 1
	}
	if cfg.WriteBatch > maxWriteBatch {
		cfg.WriteBatch = maxWriteBatch
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.SensorID) + 1
	}
	if cfg.Pacer.JitterFrac < 0 {
		cfg.Pacer.JitterFrac = 0
	}
	if cfg.Pacer.JitterFrac > maxJitterFrac {
		cfg.Pacer.JitterFrac = maxJitterFrac
	}
	return cfg
}

// maxWriteBatch bounds the frames gathered into one write so a single
// gathered buffer stays well under a megabyte even at MaxFrameSize frames.
const maxWriteBatch = 16

// FrameSource produces the sealed frames one sensor streams. Run calls
// Total once per connection, Seek after learning the server's resume
// index, then Next for each remaining frame. Implementations own encoding
// and sealing; returning Terminal(err) from Next aborts the run without
// spending the reconnect budget.
type FrameSource interface {
	// Total is the number of frames assigned over the stream's lifetime.
	Total() int
	// Seek positions the source so the next Next call produces frame
	// `resume`. It is called once per connection; a reconnect may seek
	// forward past frames an earlier connection delivered. Sources whose
	// frame content depends on history (sampling RNG, nonce counters)
	// must reproduce it exactly, so resume stays invisible in the data.
	Seek(resume int) error
	// Next returns the next sealed frame. The client copies it before it
	// calls Next again, so a source may reuse the frame's storage from one
	// Next to the next. A paced client may call the pacer's Dummy while it
	// still holds that frame, so Dummy must not write into storage Next
	// returned.
	Next(ctx context.Context) ([]byte, error)
}

// ClientStats counts one Run's transport work, for callers that aggregate
// their own accounting (the fleet simulator's per-sensor statuses, the
// load generator's report). The same counts reach the ingest.client.*
// metrics when ClientConfig.Metrics is set.
type ClientStats struct {
	DialAttempts      int
	DialFailures      int
	FramesSent        int
	WireBytesSent     int
	WriteRetries      int
	WriteDeadlineHits int
	Reconnects        int
	SoftRejects       int

	// Pacer accounting. FramesSent and WireBytesSent count only real
	// frames, so delivery accounting is identical with pacing on or off;
	// dummies are tallied separately.
	DummyFrames    int
	DummyBytesSent int
	// AoIMicrosTotal sums, over real frames, the frame's age of information
	// at release: how long the pacer held a generated frame before its
	// release slot arrived. AoIMicrosMax is the worst single frame.
	AoIMicrosTotal int64
	AoIMicrosMax   int64
}

// MeanAoIMicros is the average per-frame age of information at release, in
// microseconds (0 when no frames were sent).
func (st ClientStats) MeanAoIMicros() float64 {
	if st.FramesSent == 0 {
		return 0
	}
	return float64(st.AoIMicrosTotal) / float64(st.FramesSent)
}

// clientMetrics is the nil-safe ingest.client.* instrument family.
type clientMetrics struct {
	dialAttempts      *metrics.Counter
	dialFailures      *metrics.Counter
	framesSent        *metrics.Counter
	wireBytes         *metrics.Counter
	writeRetries      *metrics.Counter
	writeDeadlineHits *metrics.Counter
	reconnects        *metrics.Counter
	softRejects       *metrics.Counter
	dummyFrames       *metrics.Counter
	aoiNs             *metrics.Histogram
}

func newClientMetrics(reg *metrics.Registry) clientMetrics {
	return clientMetrics{
		dialAttempts:      reg.Counter("ingest.client.dial_attempts"),
		dialFailures:      reg.Counter("ingest.client.dial_failures"),
		framesSent:        reg.Counter("ingest.client.frames_sent"),
		wireBytes:         reg.Counter("ingest.client.wire_bytes_sent"),
		writeRetries:      reg.Counter("ingest.client.write_retries"),
		writeDeadlineHits: reg.Counter("ingest.client.write_deadline_hits"),
		reconnects:        reg.Counter("ingest.client.reconnects"),
		softRejects:       reg.Counter("ingest.client.soft_rejects"),
		dummyFrames:       reg.Counter("ingest.client.dummy_frames"),
		aoiNs:             reg.Histogram("ingest.client.aoi_ns", metrics.LatencyBuckets()...),
	}
}

// Client streams one sensor's frames to an ingest Server, redialing and
// resuming on transport failures and backing off on typed server rejects.
// A Client runs one stream at a time: Run must not be called concurrently
// on the same Client (the jitter RNG is not locked).
type Client struct {
	cfg ClientConfig
	m   clientMetrics
	// rng drives dial-backoff jitter. Seeded from cfg.Seed, so a fixed
	// config reproduces the same backoff schedule run after run while
	// distinct sensors spread their redials.
	rng lazyRand
}

// jitterSource draws backoff jitter; *rand.Rand and *lazyRand implement it.
type jitterSource interface {
	Int63n(n int64) int64
}

// lazyRand is a *rand.Rand seeded on its first draw. Seeding costs far more
// than a short sensor session, and only a failed dial draws, so most
// clients never seed; the draws for a seed are those of the eager RNG.
type lazyRand struct {
	seed int64
	rng  *rand.Rand
}

// Int63n implements jitterSource.
func (l *lazyRand) Int63n(n int64) int64 {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	return l.rng.Int63n(n)
}

// NewClient returns a Client for cfg (defaults applied).
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		cfg: cfg,
		m:   newClientMetrics(cfg.Metrics),
		rng: lazyRand{seed: cfg.Seed},
	}
}

// Run streams src's frames until the server confirms full delivery,
// reconnecting on transport failures (up to ReconnectAttempts) and
// retrying transient rejects (up to RejectAttempts). It returns the
// transport stats alongside the first unrecoverable error, if any.
// Cancelling ctx closes the live connection and aborts promptly.
func (c *Client) Run(ctx context.Context, src FrameSource) (ClientStats, error) {
	var st ClientStats
	rejects := 0
	for try := 0; ; try++ {
		err := c.stream(ctx, src, &st)
		if err == nil {
			return st, nil
		}
		var rej *RejectedError
		if errors.As(err, &rej) && rej.Status.Transient() {
			// Typed backpressure, not a broken link: spend the reject
			// budget and leave the reconnect budget alone.
			try--
			rejects++
			st.SoftRejects++
			c.m.softRejects.Inc()
			if rejects > c.cfg.RejectAttempts || ctx.Err() != nil {
				return st, err
			}
			if !sleepCtx(ctx.Done(), c.cfg.RejectBackoff) {
				return st, err
			}
			continue
		}
		if IsTerminal(err) || ctx.Err() != nil || try >= c.cfg.ReconnectAttempts {
			return st, err
		}
		st.Reconnects++
		c.m.reconnects.Inc()
		// Give the server a beat to retire the dropped connection's
		// session before the new hello arrives.
		if !sleepCtx(ctx.Done(), c.cfg.DialBackoff) {
			return st, err
		}
	}
}

// stream performs one connection attempt: dial, hello, resume ack, frame
// loop from the server's resume index, final delivery confirmation.
func (c *Client) stream(ctx context.Context, src FrameSource, st *ClientStats) error {
	cfg := c.cfg
	conn, dials, err := dialWithBackoff(ctx, cfg, &c.rng)
	st.DialAttempts += dials
	c.m.dialAttempts.Add(int64(dials))
	if err != nil {
		st.DialFailures++
		c.m.dialFailures.Inc()
		return err
	}
	defer conn.Close()
	// Cancellation must unblock a read or write immediately, not at the
	// next deadline expiry.
	streamDone := make(chan struct{})
	defer close(streamDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-streamDone:
		}
	}()

	if err := WriteHello(conn, cfg.SensorID, cfg.IOTimeout); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	status, resume, err := readAck(conn, cfg.IOTimeout)
	if err != nil {
		// A protocol violation is not a link hiccup: redialing the same
		// misbehaving peer cannot fix it, so don't spend the reconnect
		// budget on it.
		var pe *ProtocolError
		if errors.As(err, &pe) {
			return Terminal(fmt.Errorf("hello ack: %w", err))
		}
		return fmt.Errorf("hello ack: %w", err)
	}
	if status != StatusAccept {
		rerr := &RejectedError{Status: status}
		if !status.Transient() {
			return Terminal(rerr)
		}
		return rerr
	}
	total := src.Total()
	if resume > total {
		return Terminal(fmt.Errorf("server resume index %d beyond %d assigned frames", resume, total))
	}
	if err := src.Seek(resume); err != nil {
		return Terminal(fmt.Errorf("seek to frame %d: %w", resume, err))
	}
	if err := c.send(ctx, conn, src, st, resume, total); err != nil {
		return err
	}
	// Delivery confirmation: frame writes can land in the TCP buffer after
	// the server has dropped the link, so "every write succeeded" does not
	// mean "everything was delivered". A missing or short confirmation is
	// a transport failure, which a reconnect can resume from the true
	// delivered index.
	status, delivered, err := readAck(conn, cfg.IOTimeout)
	if err != nil {
		var pe *ProtocolError
		if errors.As(err, &pe) {
			return Terminal(fmt.Errorf("final ack: %w", err))
		}
		return fmt.Errorf("final ack: %w", err)
	}
	if status != StatusAccept {
		return Terminal(fmt.Errorf("final ack: %w", &RejectedError{Status: status}))
	}
	if delivered != total {
		return fmt.Errorf("final ack: server delivered %d of %d frames", delivered, total)
	}
	return nil
}

// send is the client's one release loop: it decides which frames reach the
// wire and when. Unpaced, each write gathers up to WriteBatch frames into
// one length-prefix-framed buffer; the receiver sees the same byte stream as
// per-frame writes, only the syscall count changes. Paced, each write
// carries the one frame of a release slot. Under PaceLive the slot is the
// frame's data-driven generation instant. Under PaceConstant/PaceJitter the
// slots come from the seeded schedule: the frame is produced eagerly (the
// sensor prepares its batch while the radio waits) and goes out in the first
// slot at or after its generation instant, and each earlier slot carries a
// sealed dummy, so the wire shows one uniform frame per slot regardless of
// what the sensor measured. Dummies don't advance the stream index, matching
// the server's ErrDummyFrame accounting, and none follow the last real frame
// — session duration is outside the pacer's threat model (see DESIGN.md).
func (c *Client) send(ctx context.Context, conn net.Conn, src FrameSource, st *ClientStats, resume, total int) error {
	p := c.cfg.Pacer
	batch, paced := c.cfg.WriteBatch, false
	var sched *paceScheduler
	switch p.Mode {
	case PaceOff:
	case PaceLive:
		batch = 1
	case PaceConstant, PaceJitter:
		if p.Interval <= 0 {
			return Terminal(errors.New("ingest: paced release needs a positive PacerConfig.Interval"))
		}
		if p.Dummy == nil {
			return Terminal(errors.New("ingest: paced release needs a PacerConfig.Dummy generator"))
		}
		batch, paced = 1, true
		sched = newPaceScheduler(p, c.cfg.Seed)
	default:
		return Terminal(fmt.Errorf("unknown pace mode %d", p.Mode))
	}
	ts, _ := src.(TimedSource)
	live := p.Mode == PaceLive && ts != nil
	// The generation clock advances by the source's gaps and the slot clock
	// by the schedule alone, both from start, so a paced release decision
	// depends on those two sequences and never on scheduler latency.
	start := time.Now()
	avail, slot := start, start
	var gather []byte
	for fi := resume; fi < total; {
		gather = gather[:0]
		n := 0
		payloadBytes := 0
		var srcErr error
		for ; n < batch && fi+n < total; n++ {
			msg, err := src.Next(ctx)
			if err != nil {
				// Flush what's already gathered before reporting the
				// source failure: per-frame writes would have delivered
				// these frames, and the source has advanced past them. A
				// source that stops itself mid-batch (a duty-cycled burst)
				// relies on this for forward progress.
				srcErr = err
				break
			}
			if ts != nil {
				avail = avail.Add(ts.LastGap())
			}
			if paced {
				for {
					slot = slot.Add(sched.next())
					// Decide against the scheduled slot time, before the
					// slot's sleep, so the decision is reproducible for a
					// fixed seed and gap sequence and the slot's frame is
					// sealed and framed before the slot begins.
					//age:declassify reviewed: the decision reads only avail and the scheduled slot, is made before the sleep, and both arms then write one frame sealed and framed before it, of the same size
					realSlot := !avail.After(slot)
					frame := msg
					if !realSlot {
						if frame, err = p.Dummy(); err != nil {
							return Terminal(fmt.Errorf("dummy frame: %w", err))
						}
					}
					if gather, err = seccomm.AppendFrame(gather[:0], frame); err != nil {
						return Terminal(fmt.Errorf("frame %d: %w", fi, err))
					}
					if d := time.Until(slot); d > 0 && !sleepCtx(ctx.Done(), d) {
						return ctx.Err()
					}
					if realSlot {
						break
					}
					if err := c.writeGather(ctx, conn, gather, st, fi); err != nil {
						return err
					}
					st.DummyFrames++
					st.DummyBytesSent += len(frame)
					c.m.dummyFrames.Inc()
				}
			} else {
				if live {
					//age:declassify PaceLive is the undefended baseline: releasing on the data-driven schedule is the leak under study
					if d := time.Until(avail); d > 0 && !sleepCtx(ctx.Done(), d) {
						return ctx.Err()
					}
				}
				gather, err = seccomm.AppendFrame(gather, msg)
				if err != nil {
					srcErr = Terminal(fmt.Errorf("frame %d: %w", fi+n, err))
					break
				}
			}
			payloadBytes += len(msg)
		}
		if len(gather) > 0 {
			if err := c.writeGather(ctx, conn, gather, st, fi); err != nil {
				return err
			}
		}
		st.FramesSent += n
		st.WireBytesSent += payloadBytes
		c.m.framesSent.Add(int64(n))
		c.m.wireBytes.Add(int64(payloadBytes))
		// AoI: paced, the slot's wait past generation; live, the wall clock
		// from generation to the end of the write.
		if n > 0 && paced {
			c.observeAoI(st, slot.Sub(avail))
		} else if n > 0 && live {
			c.observeAoI(st, time.Since(avail))
		}
		fi += n
		if srcErr != nil {
			return srcErr
		}
	}
	return nil
}

// writeGather sends one gathered buffer with retry accounting; fi names the
// first frame in the buffer for error context.
func (c *Client) writeGather(ctx context.Context, conn net.Conn, gather []byte, st *ClientStats, fi int) error {
	attempts, err := writeChunkRetry(ctx, conn, gather, c.cfg)
	if r := attempts - 1; r > 0 {
		st.WriteRetries += r
		// Every retry was preceded by a write deadline expiry.
		st.WriteDeadlineHits += r
		c.m.writeRetries.Add(int64(r))
		c.m.writeDeadlineHits.Add(int64(r))
	}
	if err != nil {
		if seccomm.IsTimeout(err) {
			st.WriteDeadlineHits++
			c.m.writeDeadlineHits.Inc()
		}
		return fmt.Errorf("frame %d: %w", fi, err)
	}
	return nil
}

// dialWithBackoff connects to cfg.Addr, retrying up to cfg.DialAttempts
// times with capped, jittered exponential backoff: the k-th pause is drawn
// uniformly from [b/2, b] where b doubles from DialBackoff up to
// dialBackoffMax (or DialBackoff, if larger). The jitter comes from the
// caller's seeded RNG, so a fixed config reproduces the same schedule while
// distinct sensors decorrelate — an uncapped, unjittered fleet redials its
// fallen server in lockstep and thunders it straight back down. It returns
// the connection and the number of attempts made.
func dialWithBackoff(ctx context.Context, cfg ClientConfig, rng jitterSource) (net.Conn, int, error) {
	backoff := cfg.DialBackoff
	var lastErr error
	for attempt := 1; attempt <= cfg.DialAttempts; attempt++ {
		d := net.Dialer{Timeout: cfg.DialTimeout}
		conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
		if err == nil {
			return conn, attempt, nil
		}
		lastErr = err
		if ctx.Err() != nil || attempt == cfg.DialAttempts {
			return nil, attempt, fmt.Errorf("dial (attempt %d/%d): %w", attempt, cfg.DialAttempts, lastErr)
		}
		var pause time.Duration
		pause, backoff = nextDialPause(backoff, max(dialBackoffMax, cfg.DialBackoff), rng)
		select {
		case <-ctx.Done():
			return nil, attempt, fmt.Errorf("dial cancelled after attempt %d: %w", attempt, ctx.Err())
		case <-time.After(pause):
		}
	}
	return nil, cfg.DialAttempts, fmt.Errorf("dial: %w", lastErr)
}

// nextDialPause draws one equal-jitter pause, uniform in [backoff/2,
// backoff], and returns the doubled-and-capped backoff for the next failure.
func nextDialPause(backoff, ceil time.Duration, rng jitterSource) (pause, next time.Duration) {
	pause = backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
	next = backoff
	if next < ceil {
		next *= 2
		if next > ceil {
			next = ceil
		}
	}
	return pause, next
}

// writeChunkRetry writes one gathered buffer of frames under the per-frame
// deadline, retrying a timed-out write up to cfg.WriteAttempts times in
// total. A single Write can transmit part of the buffer before its deadline
// expires, so every retry resumes from the first unwritten byte — resending
// from the start would duplicate the transmitted prefix on the wire and
// desynchronize the stream's length-prefix framing. Any non-timeout error
// aborts immediately. It returns the number of attempts made so callers can
// account retries and deadline expiries.
func writeChunkRetry(ctx context.Context, conn net.Conn, buf []byte, cfg ClientConfig) (int, error) {
	off := 0
	var err error
	for attempt := 1; attempt <= cfg.WriteAttempts; attempt++ {
		var n int
		n, err = writeFullDeadline(conn, buf[off:], cfg.IOTimeout)
		off += n
		if err == nil {
			return attempt, nil
		}
		if ctx.Err() != nil || !seccomm.IsTimeout(err) {
			return attempt, err
		}
	}
	return cfg.WriteAttempts, fmt.Errorf("write after %d attempts (%d/%d bytes out): %w",
		cfg.WriteAttempts, off, len(buf), err)
}
