package ingest

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable registry clock so TTL paths run without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newExportServer(t *testing.T, clk *fakeClock, ttl time.Duration) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Handler:    newTestHandler(4),
		SessionTTL: ttl,
		Clock:      clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestExportImportRoundTrip(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	a := newExportServer(t, clk, time.Minute)
	b := newExportServer(t, clk, time.Minute)

	if err := a.ImportSession(SessionState{SensorID: 9, Delivered: 7}); err != nil {
		t.Fatal(err)
	}
	st, ok := a.ExportSession(9)
	if !ok || st.Delivered != 7 || st.Done {
		t.Fatalf("export = %+v, %v; want delivered 7, not done", st, ok)
	}
	if _, ok := a.ExportSession(9); ok {
		t.Fatal("second export of a removed session succeeded")
	}
	if err := b.ImportSession(st); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.PeekSession(9); !ok || got.Delivered != 7 {
		t.Fatalf("peer peek = %+v, %v; want delivered 7", got, ok)
	}
}

func TestImportNeverRewinds(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	srv := newExportServer(t, clk, time.Minute)
	if err := srv.ImportSession(SessionState{SensorID: 2, Delivered: 9}); err != nil {
		t.Fatal(err)
	}
	// A delayed duplicate import with a smaller index must not rewind.
	if err := srv.ImportSession(SessionState{SensorID: 2, Delivered: 4}); err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.PeekSession(2); st.Delivered != 9 {
		t.Fatalf("delivered = %d after stale import, want 9", st.Delivered)
	}
	if err := srv.ImportSession(SessionState{SensorID: 2, Delivered: -1}); err == nil {
		t.Fatal("negative delivered index accepted")
	}
}

// TestExportRefusesExpired is the eviction-agreement contract: an entry the
// TTL sweep would delete is never exported to another node, using the
// injected clock — no sleeping.
func TestExportRefusesExpired(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	srv := newExportServer(t, clk, time.Minute)
	if err := srv.ImportSession(SessionState{SensorID: 1, Delivered: 4, Done: true}); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Minute - time.Second)
	if _, ok := srv.ExportSession(1); !ok {
		t.Fatal("unexpired done session refused export")
	}
	if err := srv.ImportSession(SessionState{SensorID: 1, Delivered: 4, Done: true}); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Minute + time.Second)
	if st, ok := srv.ExportSession(1); ok {
		t.Fatalf("expired session exported: %+v", st)
	}
	if _, ok := srv.PeekSession(1); ok {
		t.Fatal("expired session visible to peek")
	}
	if got := srv.ExportSessions(); len(got) != 0 {
		t.Fatalf("snapshot lists expired sessions: %v", got)
	}
	// Incomplete sessions never expire: the delivered index is exactly
	// what a resuming sensor needs, however long it slept.
	if err := srv.ImportSession(SessionState{SensorID: 3, Delivered: 2}); err != nil {
		t.Fatal(err)
	}
	clk.advance(24 * time.Hour)
	if _, ok := srv.ExportSession(3); !ok {
		t.Fatal("incomplete session expired; only done sessions may")
	}
}

// TestClockInjectionEvictsWithoutSleeping drives a real connection to
// completion, then crosses the TTL on the fake clock and asserts the claim
// sweep evicts the entry — the test never sleeps for the TTL.
func TestClockInjectionEvictsWithoutSleeping(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	h := newTestHandler(2)
	srv, addr, _ := startServer(t, ServerConfig{Handler: h, SessionTTL: time.Minute, Clock: clk.now})

	runClientOnce(t, addr, 7, framesFor(2))
	waitForIdle(t, srv, 7)

	clk.advance(2 * time.Minute)
	// The sweep is amortized onto claim; drive an unrelated hello through.
	runClientOnce(t, addr, 8, framesFor(2))
	waitForRegistryEviction(t, srv, 7)
}

func runClientOnce(t *testing.T, addr string, id int, frames [][]byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := NewClient(ClientConfig{Addr: addr, SensorID: id})
	if _, err := cl.Run(ctx, &sliceSource{frames: frames}); err != nil {
		t.Fatalf("sensor %d: %v", id, err)
	}
}

// waitForIdle waits until the server has released sensor id's entry, the
// point at which release stamps idleSince from the server's clock. The
// client's Run returns on the final ack, before the server gets there, so
// a test that advances an injected clock must wait for this first.
// ExportSessions lists idle entries only.
func waitForIdle(t *testing.T, srv *Server, id int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, st := range srv.ExportSessions() {
			if st.SensorID == id {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session %d never went idle", id)
}

func waitForRegistryEviction(t *testing.T, srv *Server, id int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := srv.PeekSession(id); !ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session %d never evicted after the TTL passed on the injected clock", id)
}

func TestImportRefusesActiveSession(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	srv := newExportServer(t, clk, time.Minute)
	if _, ok := srv.sessions.claim(4, 0, func() bool { return false }); !ok {
		t.Fatal("claim failed")
	}
	if err := srv.ImportSession(SessionState{SensorID: 4, Delivered: 3}); err == nil {
		t.Fatal("import overwrote a live connection's session")
	}
	if _, ok := srv.ExportSession(4); ok {
		t.Fatal("exported a session a live connection owns")
	}
	srv.sessions.release(4)
	if err := srv.ImportSession(SessionState{SensorID: 4, Delivered: 3}); err != nil {
		t.Fatalf("import after release: %v", err)
	}
}

func TestHelloHelpersRoundTrip(t *testing.T) {
	cl, sv := net.Pipe()
	defer cl.Close()
	defer sv.Close()
	errc := make(chan error, 1)
	go func() { errc <- WriteHello(cl, 1234, time.Second) }()
	id, err := ReadHello(sv, time.Second)
	if err != nil || id != 1234 {
		t.Fatalf("ReadHello = %d, %v; want 1234", id, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	go func() { errc <- WriteReject(sv, StatusDraining, time.Second) }()
	st, idx, err := readAck(cl, time.Second)
	if err != nil || st != StatusDraining || idx != 0 {
		t.Fatalf("reject ack = (%v, %d, %v); want draining", st, idx, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := WriteReject(sv, StatusAccept, time.Second); err == nil {
		t.Fatal("WriteReject accepted StatusAccept")
	}
}

func TestReadHelloBadMagic(t *testing.T) {
	cl, sv := net.Pipe()
	defer cl.Close()
	defer sv.Close()
	go func() {
		cl.SetWriteDeadline(time.Now().Add(time.Second))
		cl.Write([]byte{0x00, 0, 0, 0, 1})
	}()
	if _, err := ReadHello(sv, time.Second); err == nil {
		t.Fatal("bad magic accepted")
	} else if _, ok := err.(*ProtocolError); !ok {
		t.Fatalf("err = %T %v, want *ProtocolError", err, err)
	}
}
