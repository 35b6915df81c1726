package ingest

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
