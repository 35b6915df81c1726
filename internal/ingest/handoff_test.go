package ingest

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestHandoffRacesTeardown hands connections to a server from several
// goroutines in tight loops while it drains (even rounds) or closes (odd
// rounds). Teardown closes the shard queues only after every admitted
// handoff has enqueued, so no send can hit a closed queue, and every
// admitted handoff's done channel must close.
func TestHandoffRacesTeardown(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv, _, _ := startServer(t, ServerConfig{
			Handler: newTestHandler(1), Shards: 2, WorkersPerShard: 2, QueueDepth: 4,
			IOTimeout: time.Second,
		})
		var admitted atomic.Int64
		dones := make([][]<-chan struct{}, 4)
		var wg sync.WaitGroup
		for g := range dones {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					conn, peer := net.Pipe()
					peer.Close() // the session fails at its first ack write
					done, err := srv.Handoff(conn, g*1_000_000+i)
					if err != nil {
						conn.Close()
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Handoff: %v", err)
						}
						return
					}
					admitted.Add(1)
					dones[g] = append(dones[g], done)
				}
			}(g)
		}
		deadline := time.Now().Add(5 * time.Second)
		for admitted.Load() < 64 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: only %d handoffs admitted", round, admitted.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
		if round%2 == 0 {
			srv.Drain(context.Background())
		} else {
			srv.Close()
		}
		wg.Wait()
		for _, ds := range dones {
			for _, done := range ds {
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: an admitted handoff was never finished", round)
				}
			}
		}
	}
}

// TestHandoffBeforeServe: a handoff admitted before Serve runs waits in the
// queue like a listener backlog entry. A server stopped without serving
// still answers it — StatusDraining on Drain — and closes its done channel;
// once stopped it refuses further handoffs.
func TestHandoffBeforeServe(t *testing.T) {
	srv, err := NewServer(ServerConfig{Handler: newTestHandler(1), IOTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	conn, peer := net.Pipe()
	defer peer.Close()
	done, err := srv.Handoff(conn, 7)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	st, idx, err := readAck(peer, 2*time.Second)
	if err != nil || st != StatusDraining || idx != 0 {
		t.Fatalf("queued handoff ack = (%v, %d, %v), want draining", st, idx, err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("done never closed for a handoff the server answered")
	}
	other, _ := net.Pipe()
	defer other.Close()
	if _, err := srv.Handoff(other, 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("Handoff after Drain = %v, want ErrClosed", err)
	}
}

// handoffGateway plays a cluster gateway in front of srv: it accepts on a
// loopback listener, reads each hello, and hands the connection to srv.
// The returned stop closes the listener and waits for the accept loop.
func handoffGateway(t *testing.T, srv *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			id, err := ReadHello(conn, time.Second)
			if err != nil {
				conn.Close()
				continue
			}
			if _, err := srv.Handoff(conn, id); err != nil {
				conn.Close()
			}
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		wg.Wait()
	}
}

// TestServeHandoffsWithoutListener runs a server that binds no listener:
// every connection arrives by Handoff. Sensors complete through it, the
// server reports no address, and a Drain (or a Close with a session still
// in flight) leaves no goroutine behind.
func TestServeHandoffsWithoutListener(t *testing.T) {
	for _, stopBy := range []string{"drain", "close"} {
		t.Run(stopBy, func(t *testing.T) {
			base := runtime.NumGoroutine()
			h := newTestHandler(4)
			srv, err := NewServer(ServerConfig{
				Handler: h, Shards: 2, WorkersPerShard: 4, QueueDepth: 8,
				IOTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.ServeHandoffs() }()
			addr, stopGateway := handoffGateway(t, srv)

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
			if srv.Addr() != nil {
				t.Errorf("Addr() = %v on a server without a listener", srv.Addr())
			}
			if stopBy == "drain" {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Drain(ctx); err != nil {
					t.Fatalf("Drain: %v", err)
				}
			} else {
				// A sensor that said hello and went silent holds a worker
				// until Close severs it.
				conn, st, _ := dialHello(t, addr, 99)
				defer conn.Close()
				if st != StatusAccept {
					t.Fatalf("silent sensor status = %v, want accept", st)
				}
				srv.Close()
			}
			if err := <-serveErr; !errors.Is(err, ErrClosed) {
				t.Errorf("ServeHandoffs returned %v, want ErrClosed", err)
			}
			stopGateway()
			for id := 0; id < 6; id++ {
				if got := h.delivered(id); got != 4 {
					t.Errorf("sensor %d delivered %d frames, want 4", id, got)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// TestHandoffShedMatchesListener: with the only worker busy and the only
// queue slot taken, a handed-off connection is shed with the same typed
// reject as one the server's own listener accepted, and both count as
// accepted.
func TestHandoffShedMatchesListener(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, addr, _ := startServer(t, ServerConfig{
		Handler: newTestHandler(3), Shards: 1, WorkersPerShard: 1, QueueDepth: 1,
		IOTimeout: 2 * time.Second, Metrics: reg,
	})
	// A holds the only worker: accepted, then silent.
	connA, st, _ := dialHello(t, addr, 1)
	defer connA.Close()
	if st != StatusAccept {
		t.Fatalf("A status = %v, want accept", st)
	}
	// B fills the only queue slot.
	connB, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Snapshot().Gauges["ingest.queue_depth"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("B never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// C arrives by handoff, D at the listener.
	conn, peer := net.Pipe()
	defer peer.Close()
	if _, err := srv.Handoff(conn, 3); err != nil {
		t.Fatal(err)
	}
	if st, _, err := readAck(peer, 2*time.Second); err != nil || st != StatusOverloaded {
		t.Errorf("handoff: status = %v (%v), want overloaded", st, err)
	}
	connD, st, _ := dialHello(t, addr, 4)
	defer connD.Close()
	if st != StatusOverloaded {
		t.Errorf("listener: status = %v, want overloaded", st)
	}
	snap := reg.Snapshot().Counters
	if got := snap["ingest.shed_overload"]; got != 2 {
		t.Errorf("ingest.shed_overload = %d, want 2", got)
	}
	if got := snap["ingest.accepted"]; got != 4 {
		t.Errorf("ingest.accepted = %d, want 4 (handoffs count like accepts)", got)
	}
}
