package ingest

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/seccomm"
)

func TestDialWithBackoff(t *testing.T) {
	// Grab a loopback port that is guaranteed dead, then check both the
	// bounded-failure and immediate-success paths.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	go func() {
		for {
			c, err := live.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	cases := []struct {
		name        string
		addr        string
		wantErr     bool
		wantDials   int
		minDuration time.Duration
	}{
		{"dead address retries with backoff", deadAddr, true, 3, 15 * time.Millisecond},
		{"live address connects first try", live.Addr().String(), false, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ClientConfig{
				Addr:         tc.addr,
				DialTimeout:  200 * time.Millisecond,
				DialAttempts: 3,
				DialBackoff:  10 * time.Millisecond,
			}.withDefaults()
			start := time.Now()
			conn, dials, err := dialWithBackoff(context.Background(), cfg, rand.New(rand.NewSource(1)))
			elapsed := time.Since(start)
			if conn != nil {
				conn.Close()
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if dials != tc.wantDials {
				t.Errorf("dials = %d, want %d", dials, tc.wantDials)
			}
			// Two failed attempts pause in [5,10]ms then [10,20]ms (equal
			// jitter over 10ms and 20ms backoffs) before the third.
			if elapsed < tc.minDuration {
				t.Errorf("elapsed %v below backoff floor %v", elapsed, tc.minDuration)
			}
		})
	}
}

func TestWriteFrameRetryRecoversFromTimeout(t *testing.T) {
	// net.Pipe is unbuffered: the first write attempt times out with zero
	// bytes moved, then a late reader lets the bounded retry succeed.
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	cfg := ClientConfig{IOTimeout: 100 * time.Millisecond, WriteAttempts: 3}.withDefaults()

	msg := []byte("sealed sensor frame")
	buf, err := seccomm.AppendFrame(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		time.Sleep(150 * time.Millisecond) // outlive attempt 1's deadline
		frame, err := seccomm.ReadFrame(srv)
		if err != nil {
			got <- nil
			return
		}
		got <- frame
	}()
	attempts, err := writeChunkRetry(context.Background(), client, buf, cfg)
	if err != nil {
		t.Fatalf("bounded retry failed: %v", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want at least 2 (first write must have timed out)", attempts)
	}
	if frame := <-got; string(frame) != string(msg) {
		t.Errorf("reader got %q, want %q", frame, msg)
	}
}

func TestWriteFrameRetryGivesUp(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close() // no reader ever appears
	cfg := ClientConfig{IOTimeout: 30 * time.Millisecond, WriteAttempts: 2}.withDefaults()
	start := time.Now()
	_, err := writeChunkRetry(context.Background(), client, []byte("frame"), cfg)
	if err == nil {
		t.Fatal("write against a dead peer succeeded")
	}
	if !strings.Contains(err.Error(), "2 attempts") {
		t.Errorf("error %q does not report the attempt budget", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("bounded retry took %v", elapsed)
	}
}

// timeoutError satisfies net.Error with Timeout() == true, the shape
// seccomm.IsTimeout looks for.
type timeoutError struct{}

func (timeoutError) Error() string   { return "deadline exceeded (test)" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// partialWriteConn is a net.Conn whose first Write transmits only part of
// the buffer before reporting a timeout — the failure mode of a real socket
// whose send buffer drained mid-write as the deadline expired. Every byte
// it accepts is recorded, so a test can prove the retry path resumed from
// the offset instead of resending the prefix.
type partialWriteConn struct {
	net.Conn // panics on unimplemented methods; Write/deadlines overridden

	mu        sync.Mutex
	sent      []byte
	firstCut  int // bytes accepted by the first write before "timing out"
	wroteOnce bool
}

func (c *partialWriteConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.wroteOnce {
		c.wroteOnce = true
		n := c.firstCut
		if n > len(p) {
			n = len(p)
		}
		c.sent = append(c.sent, p[:n]...)
		return n, timeoutError{}
	}
	c.sent = append(c.sent, p...)
	return len(p), nil
}

func (c *partialWriteConn) SetWriteDeadline(time.Time) error { return nil }

func (c *partialWriteConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.sent...)
}

func TestWriteChunkRetryResumesFromPartialWrite(t *testing.T) {
	// Regression: writeChunkRetry used to discard the byte count of a
	// timed-out write and retry the whole buffer, duplicating the already
	// transmitted prefix and desynchronizing the length-prefix framing.
	msg := []byte("a sealed frame long enough to split")
	buf, err := seccomm.AppendFrame(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 7, len(buf) - 1} {
		conn := &partialWriteConn{firstCut: cut}
		cfg := ClientConfig{IOTimeout: 10 * time.Millisecond, WriteAttempts: 3}.withDefaults()
		attempts, err := writeChunkRetry(context.Background(), conn, buf, cfg)
		if err != nil {
			t.Fatalf("cut %d: retry failed: %v", cut, err)
		}
		if attempts != 2 {
			t.Errorf("cut %d: attempts = %d, want 2", cut, attempts)
		}
		if got := conn.bytes(); string(got) != string(buf) {
			t.Errorf("cut %d: wire bytes corrupted:\n got %q\nwant %q", cut, got, buf)
		}
	}
}

func TestNextDialPauseCapsAndJitters(t *testing.T) {
	const (
		base = 10 * time.Millisecond
		ceil = 80 * time.Millisecond
	)
	run := func(seed int64) ([]time.Duration, []time.Duration) {
		rng := rand.New(rand.NewSource(seed))
		var pauses, backoffs []time.Duration
		b := base
		for i := 0; i < 12; i++ {
			var p time.Duration
			p, b = nextDialPause(b, ceil, rng)
			pauses = append(pauses, p)
			backoffs = append(backoffs, b)
		}
		return pauses, backoffs
	}
	pauses, backoffs := run(42)
	b := base
	for i, p := range pauses {
		if p < b/2 || p > b {
			t.Errorf("pause[%d] = %v outside equal-jitter window [%v, %v]", i, p, b/2, b)
		}
		b = backoffs[i]
		if b > ceil {
			t.Errorf("backoff[%d] = %v exceeds cap %v", i, b, ceil)
		}
	}
	if last := backoffs[len(backoffs)-1]; last != ceil {
		t.Errorf("backoff never reached its cap: %v != %v", last, ceil)
	}
	// The deterministic-seed contract: same seed, same schedule.
	again, _ := run(42)
	for i := range pauses {
		if pauses[i] != again[i] {
			t.Fatalf("pause[%d] differs across same-seed runs: %v vs %v", i, pauses[i], again[i])
		}
	}
}

// TestLazyJitterMatchesEagerRNG: a client seeds its jitter RNG only on the
// first pause, and the pauses it draws for a seed are the eager RNG's.
func TestLazyJitterMatchesEagerRNG(t *testing.T) {
	const (
		base = 10 * time.Millisecond
		ceil = 80 * time.Millisecond
	)
	for _, seed := range []int64{0, 1, 42, -7} {
		c := NewClient(ClientConfig{Addr: "127.0.0.1:1", Seed: seed})
		if c.rng.rng != nil {
			t.Fatalf("seed %d: NewClient seeded its jitter RNG before any pause", seed)
		}
		eager := rand.New(rand.NewSource(c.cfg.Seed)) // as NewClient seeded it eagerly
		lb, eb := base, base
		for i := 0; i < 8; i++ {
			var lp, ep time.Duration
			lp, lb = nextDialPause(lb, ceil, &c.rng)
			ep, eb = nextDialPause(eb, ceil, eager)
			if lp != ep || lb != eb {
				t.Fatalf("seed %d pause %d: lazy (%v, next %v), eager (%v, next %v)", seed, i, lp, lb, ep, eb)
			}
		}
	}
}

func TestReadAckRejectsUnknownStatus(t *testing.T) {
	for _, status := range []byte{0x00, 0x06, 0x63, 0xFF} {
		client, srv := net.Pipe()
		go func() {
			ack := []byte{status, 0, 0, 0, 7}
			srv.Write(ack)
			srv.Close()
		}()
		_, _, err := readAck(client, 200*time.Millisecond)
		client.Close()
		if err == nil {
			t.Fatalf("status 0x%02x accepted", status)
		}
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("status 0x%02x: error %v is not a ProtocolError", status, err)
		}
		if pe.Value != status {
			t.Errorf("ProtocolError.Value = 0x%02x, want 0x%02x", pe.Value, status)
		}
	}
	// Known statuses still parse.
	client, srv := net.Pipe()
	go func() {
		srv.Write([]byte{byte(StatusAccept), 0, 0, 0, 9})
		srv.Close()
	}()
	st, idx, err := readAck(client, 200*time.Millisecond)
	client.Close()
	if err != nil || st != StatusAccept || idx != 9 {
		t.Fatalf("readAck = (%v, %d, %v), want (accept, 9, nil)", st, idx, err)
	}
}

func TestTerminalMarksAndUnwraps(t *testing.T) {
	base := &RejectedError{Status: StatusRefused}
	err := Terminal(base)
	if !IsTerminal(err) {
		t.Fatal("Terminal-wrapped error not recognized by IsTerminal")
	}
	var rej *RejectedError
	if got := err.Error(); !strings.Contains(got, "refused") {
		t.Errorf("error text %q lost the status", got)
	}
	if !errors.As(err, &rej) {
		t.Error("Terminal wrapper hides the RejectedError from errors.As")
	}
	if IsTerminal(base) {
		t.Error("unwrapped error reported terminal")
	}
	if Terminal(nil) != nil {
		t.Error("Terminal(nil) should be nil")
	}
}

func TestStatusStringsAndTransience(t *testing.T) {
	transient := map[Status]bool{
		StatusAccept:     false,
		StatusOverloaded: true,
		StatusDuplicate:  true,
		StatusDraining:   true,
		StatusRefused:    false,
	}
	for st, want := range transient {
		if st.Transient() != want {
			t.Errorf("%v.Transient() = %v, want %v", st, st.Transient(), want)
		}
		if strings.HasPrefix(st.String(), "status(") {
			t.Errorf("status %d has no name", uint8(st))
		}
	}
	if got := Status(99).String(); got != "status(99)" {
		t.Errorf("unknown status prints %q", got)
	}
}

// haltingSource yields frames until haltAt, then reports a terminal error.
// It models a source that stops itself mid-batch (a duty-cycled burst).
type haltingSource struct {
	sliceSource
	haltAt  int
	haltErr error
}

func (s *haltingSource) Next(ctx context.Context) ([]byte, error) {
	if s.next >= s.haltAt {
		return nil, s.haltErr
	}
	return s.sliceSource.Next(ctx)
}

// TestBatchedFlushesPartialGatherOnSourceError is the regression test for
// the batched frame loop discarding gathered frames when the source errors
// mid-batch: frames the source has already handed over must reach the wire
// (per-frame writes would have delivered them), so a source that stops
// itself every k frames makes progress even when k < WriteBatch.
func TestBatchedFlushesPartialGatherOnSourceError(t *testing.T) {
	h := newTestHandler(8)
	_, addr, _ := startServer(t, ServerConfig{Handler: h})
	frames := framesFor(8)
	pause := errors.New("pause")
	cl := NewClient(ClientConfig{Addr: addr, SensorID: 1, WriteBatch: 8})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := cl.Run(ctx, &haltingSource{
		sliceSource: sliceSource{frames: frames},
		haltAt:      3,
		haltErr:     Terminal(pause),
	})
	if !errors.Is(err, pause) {
		t.Fatalf("run err = %v, want the source's pause", err)
	}
	if st.FramesSent != 3 {
		t.Fatalf("FramesSent = %d, want the 3 gathered before the halt", st.FramesSent)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.delivered(1) != 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := h.delivered(1); got != 3 {
		t.Fatalf("server delivered %d frames after the halt, want 3", got)
	}

	// A fresh run resumes from the server's delivered index — proof the
	// partial batch reached the session, not just the TCP buffer.
	if _, err := cl.Run(ctx, &sliceSource{frames: frames}); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	opens := append([]int(nil), h.opens...)
	got := h.frames[1]
	h.mu.Unlock()
	if len(opens) != 2 || opens[1] != 3 {
		t.Fatalf("resume opens = %v, want [0 3]", opens)
	}
	if len(got) != 8 {
		t.Fatalf("delivered %d frames, want 8", len(got))
	}
	for i, f := range got {
		if string(f) != string(frames[i]) {
			t.Fatalf("frame %d = %q, want %q", i, f, frames[i])
		}
	}
}
