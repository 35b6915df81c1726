package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/metrics"
)

// frameBytes is the deterministic per-(sensor, index) frame payload the
// tests verify byte-exactly: content is a pure function of its coordinates,
// so re-delivery after a node kill is detectable as a harmless duplicate
// and any corruption or cross-wiring is a mismatch.
func frameBytes(sensorID, index int) []byte {
	return []byte(fmt.Sprintf("s%05d-f%05d-x%02x", sensorID, index, byte(sensorID*31+index*7)))
}

// recHandler is one node's recording ingest handler: every delivered frame
// is kept by (sensor, index) so tests can reconstruct streams and assert
// exactness across nodes.
type recHandler struct {
	node int

	mu     sync.Mutex
	opens  map[int][]int // sensor -> delivered values seen at Open
	frames map[int]map[int][]byte
	total  int
}

func newRecHandler(node, total int) *recHandler {
	return &recHandler{node: node, total: total, opens: map[int][]int{}, frames: map[int]map[int][]byte{}}
}

func (h *recHandler) Open(sensorID, delivered int) (ingest.Session, error) {
	h.mu.Lock()
	h.opens[sensorID] = append(h.opens[sensorID], delivered)
	h.mu.Unlock()
	return &recSession{h: h, sensorID: sensorID}, nil
}

func (h *recHandler) Rejected(sensorID int, status ingest.Status) {}
func (h *recHandler) Unattributed(err error)                      {}

func (h *recHandler) sensorOpens(sensorID int) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.opens[sensorID]...)
}

func (h *recHandler) sensors() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.frames)
}

type recSession struct {
	h        *recHandler
	sensorID int
}

func (s *recSession) Total() int { return s.h.total }

func (s *recSession) Frame(index int, msg []byte) error {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.frames[s.sensorID]
	if m == nil {
		m = map[int][]byte{}
		h.frames[s.sensorID] = m
	}
	m[index] = append([]byte(nil), msg...)
	return nil
}

func (s *recSession) Close(err error) {}

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// verifyStreams reconstructs each listed sensor's stream from the union of
// all node handlers and asserts byte-exact, gap-free delivery.
func verifyStreams(t *testing.T, handlers []*recHandler, sensorIDs []int, total int) {
	t.Helper()
	missing, mismatched := 0, 0
	for _, id := range sensorIDs {
		got := map[int][]byte{}
		for _, h := range handlers {
			h.mu.Lock()
			for idx, msg := range h.frames[id] {
				if prev, ok := got[idx]; ok && !bytes.Equal(prev, msg) {
					mismatched++
				}
				got[idx] = msg
			}
			h.mu.Unlock()
		}
		for idx := 0; idx < total; idx++ {
			msg, ok := got[idx]
			if !ok {
				missing++
				continue
			}
			if !bytes.Equal(msg, frameBytes(id, idx)) {
				mismatched++
			}
		}
	}
	if missing != 0 || mismatched != 0 {
		t.Fatalf("reconstructed streams: %d missing, %d mismatched frames", missing, mismatched)
	}
}

// gateSource generates frameBytes frames, optionally blocking at gateAt
// until gate closes and optionally failing (transport-shaped) at failAt.
type gateSource struct {
	sensorID int
	total    int
	next     int
	gateAt   int // -1: never
	gate     <-chan struct{}
	failAt   int // -1: never
}

func (s *gateSource) Total() int { return s.total }

func (s *gateSource) Seek(resume int) error {
	s.next = resume
	return nil
}

func (s *gateSource) Next(ctx context.Context) ([]byte, error) {
	if s.gateAt >= 0 && s.next == s.gateAt {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.failAt >= 0 && s.next == s.failAt {
		return nil, fmt.Errorf("induced link fault at frame %d", s.failAt)
	}
	msg := frameBytes(s.sensorID, s.next)
	s.next++
	return msg, nil
}

// testCluster builds and starts a cluster of n recording nodes.
func testCluster(t *testing.T, n, total int, clock func() time.Time) (*Cluster, []*recHandler) {
	t.Helper()
	handlers := make([]*recHandler, 0, n+4)
	var hmu sync.Mutex
	c := startCluster(t, Config{
		Nodes: n,
		NewNode: func(i int) NodeSpec {
			h := newRecHandler(i, total)
			hmu.Lock()
			handlers = append(handlers, h)
			hmu.Unlock()
			return NodeSpec{Server: ingest.ServerConfig{Handler: h}}
		},
		Clock: clock,
	})
	return c, handlers
}

func clientCfg(addr string, id int) ingest.ClientConfig {
	return ingest.ClientConfig{
		Addr:              addr,
		SensorID:          id,
		DialBackoff:       2 * time.Millisecond,
		ReconnectAttempts: 4,
	}
}

// runSensors streams each sensor's full assignment concurrently and
// returns the per-sensor stats; any run error fails the test.
func runSensors(t *testing.T, addr string, sensors, total int, src func(id int) *gateSource) []ingest.ClientStats {
	t.Helper()
	stats := make([]ingest.ClientStats, sensors)
	errs := make([]error, sensors)
	var wg sync.WaitGroup
	for id := 0; id < sensors; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := ingest.NewClient(clientCfg(addr, id))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			stats[id], errs[id] = cl.Run(ctx, src(id))
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("sensor %d: %v", id, err)
		}
	}
	return stats
}

func waitQuiet(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().ActiveConns == 0 {
			assertLoadCounters(t, c)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("proxied connections never went quiet: %+v", c.Stats())
}

// assertLoadCounters recomputes the bounded-load counters from the locator
// map and fails when the incremental bookkeeping has drifted — the counters
// exist so routing never scans the map, which makes silent skew otherwise
// invisible until placement goes lopsided.
func assertLoadCounters(t *testing.T, c *Cluster) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	want := make([]int, len(c.nodes))
	for _, e := range c.locator {
		if !e.done {
			want[e.node]++
		}
	}
	for id := range want {
		if c.loads[id] != want[id] {
			t.Fatalf("node %d load counter = %d, locator holds %d not-done entries", id, c.loads[id], want[id])
		}
	}
}

func TestClusterRoutesAndCompletes(t *testing.T) {
	const sensors, total = 48, 6
	c, handlers := testCluster(t, 3, total, nil)
	addr := c.Addr().String()
	runSensors(t, addr, sensors, total, func(id int) *gateSource {
		return &gateSource{sensorID: id, total: total, gateAt: -1, failAt: -1}
	})
	verifyStreams(t, handlers, seqIDs(sensors), total)
	for _, h := range handlers {
		if h.sensors() == 0 {
			t.Errorf("node %d served no sensors; routing did not spread", h.node)
		}
	}
	st := c.Stats()
	if st.LocatorSize != sensors {
		t.Errorf("locator holds %d entries, want %d", st.LocatorSize, sensors)
	}
}

// TestNodesBindNoListener: every connection reaches a node by handoff, so
// no node binds a listener, before or after traffic, and Close leaves no
// goroutine behind.
func TestNodesBindNoListener(t *testing.T) {
	const sensors, total = 12, 3
	base := runtime.NumGoroutine()
	c, handlers := testCluster(t, 3, total, nil)
	for _, n := range c.nodes {
		if a := n.srv.Addr(); a != nil {
			t.Errorf("node %d bound %v", n.id, a)
		}
	}
	runSensors(t, c.Addr().String(), sensors, total, func(id int) *gateSource {
		return &gateSource{sensorID: id, total: total, gateAt: -1, failAt: -1}
	})
	verifyStreams(t, handlers, seqIDs(sensors), total)
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		if a := n.srv.Addr(); a != nil {
			t.Errorf("node %d bound %v", n.id, a)
		}
	}
	c.Close()
	waitGoroutines(t, base)
}

func TestClusterKillNodeResumesElsewhere(t *testing.T) {
	const sensors, total, gateAt = 24, 8, 4
	c, handlers := testCluster(t, 3, total, nil)
	addr := c.Addr().String()

	gate := make(chan struct{})
	var wg sync.WaitGroup
	stats := make([]ingest.ClientStats, sensors)
	errs := make([]error, sensors)
	for id := 0; id < sensors; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := ingest.NewClient(clientCfg(addr, id))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			stats[id], errs[id] = cl.Run(ctx, &gateSource{
				sensorID: id, total: total, gateAt: gateAt, gate: gate, failAt: -1,
			})
		}(id)
	}

	// Let every sensor reach the gate (half its frames delivered, the
	// connection parked mid-stream), then crash one node under them.
	waitForActive(t, c, sensors)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	close(gate)
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("sensor %d after node kill: %v", id, err)
		}
	}
	// Zero data loss: the union of streams across surviving nodes is
	// byte-exact and gap-free — killed-node sensors re-delivered their
	// prefix elsewhere (frame indices make the replay idempotent).
	verifyStreams(t, handlers, seqIDs(sensors), total)
	reconnected := 0
	for _, st := range stats {
		reconnected += st.Reconnects
	}
	if reconnected == 0 {
		t.Error("no sensor reconnected after a node kill; the kill hit nothing")
	}
}

// waitForActive blocks until n sensors are routed and carried by a live
// proxied connection — not merely accepted by the gateway, which happens
// before the hello is read and the sensor placed.
func waitForActive(t *testing.T, c *Cluster, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := c.Stats()
		routed := 0
		for _, ni := range st.Nodes {
			routed += ni.Active
		}
		if st.LocatorSize >= n && routed >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("never reached %d routed conns: %+v", n, c.Stats())
}

func TestClusterDrainMigratesSessionExactly(t *testing.T) {
	const id, total, half = 7, 10, 5
	c, handlers := testCluster(t, 2, total, nil)
	addr := c.Addr().String()

	// Phase 1: deliver half the stream, then drop the link (transport
	// fault, no reconnect budget) so the session parks idle at half.
	cfg := clientCfg(addr, id)
	cfg.ReconnectAttempts = 0
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := ingest.NewClient(cfg).Run(ctx, &gateSource{
		sensorID: id, total: total, gateAt: -1, failAt: half,
	}); err == nil {
		t.Fatal("phase 1 should fail at the induced fault")
	}
	waitQuiet(t, c)

	c.mu.Lock()
	e := c.locator[id]
	c.mu.Unlock()
	if e == nil {
		t.Fatal("no locator entry after phase 1")
	}
	origin := e.node
	st, ok := c.nodes[origin].srv.PeekSession(id)
	if !ok || st.Delivered != half {
		t.Fatalf("origin node %d session = %+v, %v; want delivered %d", origin, st, ok, half)
	}

	// Phase 2: drain the origin. The parked session must migrate.
	if err := c.DrainNode(ctx, origin); err != nil {
		t.Fatal(err)
	}
	other := 1 - origin
	if st, ok := c.nodes[other].srv.PeekSession(id); !ok || st.Delivered != half {
		t.Fatalf("migrated session on node %d = %+v, %v; want delivered %d", other, st, ok, half)
	}

	// Phase 3: resume. The sensor must land on the surviving node and
	// continue from exactly half — no replayed frames, no gaps.
	if _, err := ingest.NewClient(clientCfg(addr, id)).Run(ctx, &gateSource{
		sensorID: id, total: total, gateAt: -1, failAt: -1,
	}); err != nil {
		t.Fatalf("phase 3 resume: %v", err)
	}
	opens := handlers[other].sensorOpens(id)
	if len(opens) != 1 || opens[0] != half {
		t.Fatalf("surviving node opens = %v, want exactly [%d]", opens, half)
	}
	handlers[other].mu.Lock()
	gotIdx := make([]int, 0, total)
	for idx := range handlers[other].frames[id] {
		gotIdx = append(gotIdx, idx)
	}
	handlers[other].mu.Unlock()
	if len(gotIdx) != total-half {
		t.Fatalf("surviving node holds %d frames, want only the resumed suffix %d", len(gotIdx), total-half)
	}
	verifyStreams(t, handlers, []int{id}, total) // union across both nodes is complete
}

func TestClusterDrainUnderLoadNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		const sensors, total, gateAt = 16, 6, 3
		c, handlers := testCluster(t, 3, total, nil)
		addr := c.Addr().String()
		gate := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, sensors)
		for id := 0; id < sensors; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_, errs[id] = ingest.NewClient(clientCfg(addr, id)).Run(ctx, &gateSource{
					sensorID: id, total: total, gateAt: gateAt, gate: gate, failAt: -1,
				})
			}(id)
		}
		waitForActive(t, c, sensors)

		// Drain node 2 while its sessions are parked mid-stream: it leaves
		// the ring immediately, its in-flight sessions run to completion
		// once the gate opens, and nothing leaks.
		drainDone := make(chan error, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		go func() { drainDone <- c.DrainNode(ctx, 2) }()
		time.Sleep(10 * time.Millisecond) // let the drain sever the ring first
		close(gate)
		wg.Wait()
		if err := <-drainDone; err != nil {
			t.Fatalf("drain: %v", err)
		}
		for id, err := range errs {
			if err != nil {
				t.Fatalf("sensor %d during drain: %v", id, err)
			}
		}
		verifyStreams(t, handlers, seqIDs(sensors), total)
		if err := c.Drain(ctx); err != nil {
			t.Fatalf("cluster drain: %v", err)
		}
	}()
	waitGoroutines(t, before)
}

func TestClusterAddNodeRebalancesOnlyAffected(t *testing.T) {
	const idle, activeN, total, gateAt = 40, 8, 6, 3
	c, handlers := testCluster(t, 3, total, nil)
	addr := c.Addr().String()

	// Wave 1: idle sessions — completed streams parked in the locator.
	runSensors(t, addr, idle, total, func(id int) *gateSource {
		return &gateSource{sensorID: id, total: total, gateAt: -1, failAt: -1}
	})
	waitQuiet(t, c)
	c.mu.Lock()
	before := map[int]int{}
	for id, e := range c.locator {
		before[id] = e.node
	}
	c.mu.Unlock()

	// Wave 2: live sensors parked mid-stream while the node joins.
	gate := make(chan struct{})
	var wg sync.WaitGroup
	stats := make([]ingest.ClientStats, idle+activeN)
	errs := make([]error, idle+activeN)
	for id := idle; id < idle+activeN; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			stats[id], errs[id] = ingest.NewClient(clientCfg(addr, id)).Run(ctx, &gateSource{
				sensorID: id, total: total, gateAt: gateAt, gate: gate, failAt: -1,
			})
		}(id)
	}
	waitForActive(t, c, activeN)

	newID, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	wg.Wait()
	for id := idle; id < idle+activeN; id++ {
		if errs[id] != nil {
			t.Fatalf("live sensor %d across a join: %v", id, errs[id])
		}
		// The join must be invisible to live streams: no severed
		// connections, no forced redials.
		if stats[id].Reconnects != 0 {
			t.Errorf("live sensor %d reconnected %d times across a join", id, stats[id].Reconnects)
		}
	}
	verifyStreams(t, handlers, seqIDs(idle+activeN), total)

	// Idle sessions: exactly the ring-affected ones moved to the joined
	// node; every other mapping is untouched.
	c.mu.Lock()
	moved, kept := 0, 0
	for id := 0; id < idle; id++ {
		e := c.locator[id]
		if e == nil {
			c.mu.Unlock()
			t.Fatalf("idle sensor %d lost its locator entry on join", id)
		}
		primary, _ := c.ring.lookup(id)
		switch {
		case primary == newID && e.node == newID:
			moved++
		case primary != newID && e.node == before[id]:
			kept++
		default:
			c.mu.Unlock()
			t.Fatalf("sensor %d: ring primary %d, locator node %d (was %d) — moved without cause",
				id, primary, e.node, before[id])
		}
	}
	c.mu.Unlock()
	if moved == 0 {
		t.Error("no idle session moved to the joined node; rebalance did nothing")
	}
	t.Logf("join rebalance: %d moved, %d untouched", moved, kept)
}

// errSleep ends a sleepSource's wake period.
var errSleep = errors.New("sensor asleep")

// sleepSource is one wake period of a duty-cycled sensor: it streams
// frameBytes frames from the resume index up to stopAt, then ends the run
// with a terminal error, which leaves its session open (not done) on the
// node. With stopAt == total the stream completes instead.
type sleepSource struct {
	sensorID, total, stopAt, next int
}

func (s *sleepSource) Total() int { return s.total }

func (s *sleepSource) Seek(resume int) error {
	s.next = resume
	return nil
}

func (s *sleepSource) Next(ctx context.Context) ([]byte, error) {
	if s.next == s.stopAt {
		return nil, ingest.Terminal(errSleep)
	}
	msg := frameBytes(s.sensorID, s.next)
	s.next++
	return msg, nil
}

// TestClusterIdleReconnectsDoNotMigrate runs duty-cycled sensors that
// disconnect mid-stream and reconnect, one connection at a time, while no
// node joins, drains or dies. With no membership change and every holder
// within its load ceiling, each reconnect must go back to the node holding
// the sensor's state: a migration would be pure state churn, and every
// state transfer is one more step that can fail.
func TestClusterIdleReconnectsDoNotMigrate(t *testing.T) {
	const sensors, total = 60, 4
	reg := metrics.NewRegistry()
	var handlers []*recHandler
	c := startCluster(t, Config{
		Nodes: 3,
		NewNode: func(i int) NodeSpec {
			h := newRecHandler(i, total)
			handlers = append(handlers, h)
			return NodeSpec{Server: ingest.ServerConfig{Handler: h}}
		},
		Metrics: reg,
	})
	addr := c.Addr().String()
	wake := func(stopAt int) {
		for id := 0; id < sensors; id++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, err := ingest.NewClient(clientCfg(addr, id)).Run(ctx, &sleepSource{sensorID: id, total: total, stopAt: stopAt})
			cancel()
			if stopAt < total && !errors.Is(err, errSleep) || stopAt == total && err != nil {
				t.Fatalf("wake to frame %d, sensor %d: run error %v", stopAt, id, err)
			}
			// The gateway retires the connection after the client returns;
			// wait so the next route sees settled loads.
			waitQuiet(t, c)
		}
	}
	// Every sensor stays mid-stream through these wakes, so the total
	// load, and each node's share of it, never changes.
	for stopAt := 1; stopAt < total; stopAt++ {
		wake(stopAt)
	}
	if got := reg.Counter("cluster.migrations").Value(); got != 0 {
		t.Errorf("cluster.migrations = %d with no membership change, want 0", got)
	}
	// The last wake completes every stream. As sessions complete the total
	// shrinks, which can leave a holder over its ceiling, a legitimate
	// reason to move; only delivery is checked here.
	wake(total)
	verifyStreams(t, handlers, seqIDs(sensors), total)
}

// fakeClock is a settable shared clock for TTL tests: no sleeping.
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

// TestClusterEvictionAgreement is the regression for the locator/registry
// eviction split: a session evicted on node A must not survive a migration
// to node B — both tiers run on the shared clock, so the gateway re-admits
// the sensor from scratch instead of resurrecting expired state.
func TestClusterEvictionAgreement(t *testing.T) {
	const id, total = 3, 4
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c, handlers := testCluster(t, 2, total, clk.now)
	addr := c.Addr().String()

	// Complete one stream; its done entry now sits on some node A.
	runSensors(t, addr, id+1, total, func(s int) *gateSource {
		return &gateSource{sensorID: s, total: total, gateAt: -1, failAt: -1}
	})
	waitQuiet(t, c)
	c.mu.Lock()
	e := c.locator[id]
	origin := e.node
	c.mu.Unlock()
	if _, ok := c.nodes[origin].srv.PeekSession(id); !ok {
		t.Fatal("no registry entry after completion")
	}

	// Cross the TTL on the shared clock: registry and locator now both
	// consider the session gone, with no wall time spent.
	clk.advance(defaultSessionTTL + time.Second)
	if _, ok := c.nodes[origin].srv.PeekSession(id); ok {
		t.Fatal("registry still serves an expired session")
	}
	// Force the migration path: point the ring away from the session's
	// node so the next hello would hand the (expired) state to node B.
	c.mu.Lock()
	c.ring.remove(origin)
	c.mu.Unlock()

	// The sensor returns. Migration must refuse the expired state and the
	// gateway must re-admit from scratch — delivered 0, stream replayed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := ingest.NewClient(clientCfg(addr, id)).Run(ctx, &gateSource{
		sensorID: id, total: total, gateAt: -1, failAt: -1,
	}); err != nil {
		t.Fatalf("re-admission run: %v", err)
	}
	other := 1 - origin
	opens := handlers[other].sensorOpens(id)
	if len(opens) != 1 || opens[0] != 0 {
		t.Fatalf("node %d opens for sensor %d = %v, want a fresh [0] admission", other, id, opens)
	}
	c.mu.Lock()
	e = c.locator[id]
	c.mu.Unlock()
	if e == nil || e.node != other {
		t.Fatalf("locator after re-admission = %+v, want node %d", e, other)
	}
	verifyStreams(t, handlers, seqIDs(id+1), total)
}

// startCluster starts a cluster built from cfg and closes it at test end.
func startCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawHello dials addr, sends sensorID's hello, and returns the conn with
// the status of the first ack.
func rawHello(t *testing.T, addr string, sensorID int) (net.Conn, ingest.Status) {
	t.Helper()
	conn := rawDialHello(t, addr, sensorID)
	var ack [5]byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		t.Fatalf("sensor %d ack: %v", sensorID, err)
	}
	return conn, ingest.Status(ack[0])
}

// rawDialHello dials addr and sends sensorID's hello without reading the ack.
func rawDialHello(t *testing.T, addr string, sensorID int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.WriteHello(conn, sensorID, 5*time.Second); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitGoroutines fails unless the goroutine count settles back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHandoffRacesNodeTeardown keeps hellos flowing through the gateway
// while nodes stop under it: DrainNode(1), then KillNode(2), then Close.
// A hello routed just before its node leaves the ring reaches Handoff while
// that node tears down; a handoff that slipped into a closed shard queue
// would panic with a send on a closed channel. Every sensor must still
// complete — directly, after a typed-reject retry, or after a reconnect —
// and no goroutine may outlive Close.
func TestHandoffRacesNodeTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		handoffTeardownRound(t)
	}
	waitGoroutines(t, base)
}

func handoffTeardownRound(t *testing.T) {
	const workers, perWorker, total = 16, 24, 3
	const sensors = workers * perWorker
	reg := metrics.NewRegistry()
	handlers := make([]*recHandler, 3)
	c := startCluster(t, Config{
		Nodes: 3,
		NewNode: func(i int) NodeSpec {
			handlers[i] = newRecHandler(i, total)
			return NodeSpec{Server: ingest.ServerConfig{Handler: handlers[i]}}
		},
		Metrics: reg,
	})
	addr := c.Addr().String()

	var completed atomic.Int64
	var softRejects, reconnects atomic.Int64
	errs := make([]error, sensors)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				id := w + k*workers
				cfg := clientCfg(addr, id)
				cfg.RejectAttempts = 64
				cfg.RejectBackoff = time.Millisecond
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				st, err := ingest.NewClient(cfg).Run(ctx, &gateSource{
					sensorID: id, total: total, gateAt: -1, failAt: -1,
				})
				cancel()
				errs[id] = err
				softRejects.Add(int64(st.SoftRejects))
				reconnects.Add(int64(st.Reconnects))
				completed.Add(1)
			}
		}(w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	waitFor(t, "a quarter of the fleet", func() bool { return completed.Load() >= sensors/4 })
	if err := c.DrainNode(ctx, 1); err != nil {
		t.Fatalf("drain node 1: %v", err)
	}
	waitFor(t, "half of the fleet", func() bool { return completed.Load() >= sensors/2 })
	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("sensor %d: %v", id, err)
		}
	}
	verifyStreams(t, handlers, seqIDs(sensors), total)
	waitQuiet(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	refused := reg.Counter("cluster.node_dial_failures").Value()
	t.Logf("%d sensors: %d soft rejects, %d reconnects, %d refused handoffs",
		sensors, softRejects.Load(), reconnects.Load(), refused)
}

// TestHandoffRefusedByStoppingNode: a node that stopped while the gateway
// still routes to it refuses the handoff, and the gateway answers the
// hello with StatusOverloaded, counting cluster.node_dial_failures.
func TestHandoffRefusedByStoppingNode(t *testing.T) {
	reg := metrics.NewRegistry()
	c := startCluster(t, Config{
		Nodes:   1,
		Node:    NodeSpec{Server: ingest.ServerConfig{Handler: newRecHandler(0, 2)}},
		Metrics: reg,
	})
	// Stop the node's server behind the gateway's back: the ring still
	// routes to it, exactly the window between routing and handoff.
	c.nodes[0].srv.Close()

	conn, st := rawHello(t, c.Addr().String(), 5)
	conn.Close()
	if st != ingest.StatusOverloaded {
		t.Fatalf("status = %v, want overloaded", st)
	}
	if got := reg.Counter("cluster.node_dial_failures").Value(); got != 1 {
		t.Errorf("cluster.node_dial_failures = %d, want 1", got)
	}
	if got := reg.Counter("cluster.rejected").Value(); got != 0 {
		t.Errorf("cluster.rejected = %d, want 0 (the gateway routed the hello)", got)
	}
	waitQuiet(t, c)
	if st := c.Stats(); st.LocatorSize != 0 {
		t.Errorf("refused handoff left %d locator entries", st.LocatorSize)
	}
}

// TestKillNodeSeversHandedOffConn: the node owns a handed-off conn, so
// killing the node severs the sensor's link itself. The sensor reconnects
// through the gateway, lands on the surviving node, and resumes from the
// index that node hands it — 0, since the state died with the killed node.
func TestKillNodeSeversHandedOffConn(t *testing.T) {
	const id, total, gateAt = 4, 8, 4
	c, handlers := testCluster(t, 2, total, nil)
	gate := make(chan struct{})
	type result struct {
		st  ingest.ClientStats
		err error
	}
	res := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		st, err := ingest.NewClient(clientCfg(c.Addr().String(), id)).Run(ctx, &gateSource{
			sensorID: id, total: total, gateAt: gateAt, gate: gate, failAt: -1,
		})
		res <- result{st, err}
	}()
	waitForActive(t, c, 1)
	c.mu.Lock()
	origin := c.locator[id].node
	c.mu.Unlock()
	waitFor(t, "the parked prefix", func() bool {
		st, ok := c.nodes[origin].srv.PeekSession(id)
		return ok && st.Delivered == gateAt
	})

	if err := c.KillNode(origin); err != nil {
		t.Fatal(err)
	}
	// The gateway forgot the sensor and no longer counts the conn: the
	// node's Close severed it and the gateway's wait ended.
	waitQuiet(t, c)
	close(gate)
	r := <-res
	if r.err != nil {
		t.Fatalf("sensor after kill: %v", r.err)
	}
	if r.st.Reconnects != 1 {
		t.Errorf("reconnects = %d, want 1", r.st.Reconnects)
	}
	other := 1 - origin
	if opens := handlers[other].sensorOpens(id); len(opens) != 1 || opens[0] != 0 {
		t.Fatalf("surviving node opens = %v, want one fresh admission [0]", opens)
	}
	verifyStreams(t, handlers, []int{id}, total)
}

// TestHandoffShedAtQueueBound: a node whose workers are busy and whose
// queue is full sheds handed-off conns with StatusOverloaded.
func TestHandoffShedAtQueueBound(t *testing.T) {
	reg := metrics.NewRegistry()
	c := startCluster(t, Config{
		Nodes: 1,
		Node: NodeSpec{Server: ingest.ServerConfig{
			Handler: newRecHandler(0, 2),
			Shards:  1, WorkersPerShard: 1, QueueDepth: 1,
			IOTimeout: 5 * time.Second,
		}},
		Metrics: reg,
	})
	gw := c.Addr().String()

	// A holds the only worker: accepted, then silent.
	a, st := rawHello(t, gw, 1)
	defer a.Close()
	if st != ingest.StatusAccept {
		t.Fatalf("A status = %v, want accept", st)
	}
	// B fills the only queue slot.
	b := rawDialHello(t, gw, 2)
	defer b.Close()
	waitFor(t, "B to queue", func() bool {
		return reg.Snapshot().Gauges["ingest.queue_depth"] == 1
	})

	// C and D meet the full queue and get the typed reject. Nodes bind no
	// listener; ingest's TestHandoffShedMatchesListener pins that a
	// handoff is shed exactly like a listener-accepted conn.
	for _, id := range []int{3, 4} {
		conn, st := rawHello(t, gw, id)
		conn.Close()
		if st != ingest.StatusOverloaded {
			t.Errorf("sensor %d: status = %v, want overloaded", id, st)
		}
	}
	snap := reg.Snapshot().Counters
	if got := snap["ingest.shed_overload"]; got != 2 {
		t.Errorf("ingest.shed_overload = %d, want 2", got)
	}
	if got := snap["ingest.accepted"]; got != 4 {
		t.Errorf("ingest.accepted = %d, want 4 (handoffs count like accepts)", got)
	}
	if got := snap["cluster.node_dial_failures"]; got != 0 {
		t.Errorf("cluster.node_dial_failures = %d, want 0: shedding is not refusing", got)
	}
}
