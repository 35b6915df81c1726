// The gateway reads client hellos and hands the conns to nodes: everything
// here touches the wire, so the whole file is transport scope for
// ctxdeadline and leaktaint (belt and braces with the package-level scoping
// in their default configs).
//
//age:transport
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/metrics"
)

// Gateway defaults, applied when the corresponding Config knob is zero.
const (
	defaultNodes     = 3
	defaultMaxConns  = 4096
	defaultIOTimeout = 5 * time.Second
	// loadFactor is the bounded-load ceiling factor c: a node accepts new
	// sensors only while its assigned-session count is below
	// ceil(c * (total+1) / liveNodes).
	loadFactor = 1.25
	// maxRejecters bounds the goroutines that answer over-MaxConns
	// connections with a typed reject, as the ingest server bounds its
	// shed path; past it, overflow connections are closed outright.
	maxRejecters = 32
	// defaultSessionTTL mirrors the ingest server's registry default; the
	// cluster pushes one TTL into every node so the locator and the node
	// registries expire entries on the same schedule.
	defaultSessionTTL = time.Minute
)

// ErrClosed is returned for operations on a closed cluster.
var ErrClosed = errors.New("cluster: closed")

// NodeSpec is one node's build recipe: its ingest server config.
type NodeSpec struct {
	Server ingest.ServerConfig
}

// Config configures a Cluster.
type Config struct {
	// Nodes is the initial node count (default 3).
	Nodes int
	// NewNode builds node i's spec. Required unless Node.Handler is set,
	// in which case every node shares the Node template. The cluster
	// overrides each spec's Clock and SessionTTL with its own so the
	// locator map and the node registries agree on eviction.
	NewNode func(i int) NodeSpec
	// Node is the template spec used when NewNode is nil.
	Node NodeSpec

	// MaxConns bounds concurrently routed connections (default 4096);
	// beyond it new connections are shed with StatusOverloaded, the same
	// transient reject the nodes use, so clients back off and retry.
	MaxConns int
	// IOTimeout is the gateway's deadline for reading a hello and writing
	// its own rejects (default 5s). Once a connection is handed to a node,
	// the node's IOTimeout owns it.
	IOTimeout time.Duration
	// SessionTTL is the idle lifetime of completed sessions, pushed into
	// every node registry and used by the locator map (default 1 minute;
	// negative keeps entries forever).
	SessionTTL time.Duration
	// Clock supplies the shared eviction clock (default time.Now),
	// injected into every node registry and the locator map.
	Clock func() time.Time
	// Metrics, when set, receives the cluster.* instrument family and is
	// shared with every node's ingest.* family (counters aggregate across
	// nodes).
	Metrics *metrics.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.Nodes <= 0 {
		cfg.Nodes = defaultNodes
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = defaultMaxConns
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = defaultIOTimeout
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = defaultSessionTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg
}

// nodeState is a node's lifecycle position.
type nodeState int

const (
	nodePending nodeState = iota // built, not yet serving
	nodeLive
	nodeDraining
	nodeDead
)

func (s nodeState) String() string {
	switch s {
	case nodePending:
		return "pending"
	case nodeLive:
		return "live"
	case nodeDraining:
		return "draining"
	case nodeDead:
		return "dead"
	}
	return fmt.Sprintf("nodeState(%d)", int(s))
}

// node is one in-process ingest node under the gateway.
type node struct {
	id    int
	srv   *ingest.Server
	state nodeState
}

// locEntry is the locator map's per-sensor record: which node holds the
// sensor's session state, how many routed connections currently carry it,
// and the eviction bookkeeping mirroring the node registry's.
type locEntry struct {
	node      int
	active    int
	done      bool
	idleSince time.Time
}

// clusterMetrics is the nil-safe cluster.* instrument family.
type clusterMetrics struct {
	routed     *metrics.Counter
	rejected   *metrics.Counter
	migrations *metrics.Counter
	// dialFails counts handoffs a stopping or closed node refused. It
	// keeps the name cluster.node_dial_failures because ageload and
	// perfbench read it under that name.
	dialFails *metrics.Counter
	evicted   *metrics.Counter
}

func newClusterMetrics(reg *metrics.Registry) clusterMetrics {
	return clusterMetrics{
		routed:     reg.Counter("cluster.routed"),
		rejected:   reg.Counter("cluster.rejected"),
		migrations: reg.Counter("cluster.migrations"),
		dialFails:  reg.Counter("cluster.node_dial_failures"),
		evicted:    reg.Counter("cluster.locator_evicted"),
	}
}

// Cluster is a gateway fronting N in-process ingest nodes. Sensors connect
// to the gateway address and speak the unmodified ingest protocol; the
// gateway reads each connection's hello, routes the sensor to a node by
// consistent hash (bounded-load variant) with stickiness to wherever the
// sensor's session state lives, and hands the connection itself to that
// node (ingest.Server.Handoff), which serves the rest of the session.
type Cluster struct {
	cfg Config
	m   clusterMetrics

	mu      sync.Mutex
	nodes   []*node
	ring    *ring
	locator map[int]*locEntry
	// loads[id] counts the not-yet-done locator entries assigned to node id,
	// maintained incrementally on every entry mutation so the bounded-load
	// ring lookup never scans the locator map — at fleet scale a per-route
	// O(locator) scan under mu collapses gateway throughput. atomicmix
	// rejects mutations outside the //age:counter helpers below.
	//age:counter
	loads     []int
	lastSweep time.Time
	ln        net.Listener
	started   bool
	closed    bool

	conns     map[net.Conn]struct{} // live gateway-side conns, severed on Close
	connSem   chan struct{}
	rejectSem chan struct{}
	activeCnt atomic.Int64

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// New validates cfg and builds the cluster's initial nodes without starting
// anything; call Start.
func New(cfg Config) (*Cluster, error) {
	if cfg.NewNode == nil && cfg.Node.Server.Handler == nil {
		return nil, errors.New("cluster: Config needs NewNode or a Node template with a Handler")
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:       cfg,
		m:         newClusterMetrics(cfg.Metrics),
		ring:      &ring{},
		locator:   map[int]*locEntry{},
		conns:     map[net.Conn]struct{}{},
		connSem:   make(chan struct{}, cfg.MaxConns),
		rejectSem: make(chan struct{}, maxRejecters),
	}
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := c.buildNode(); err != nil {
			return nil, err
		}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("cluster.active_conns", c.activeCnt.Load)
		reg.GaugeFunc("cluster.locator_size", func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.locator))
		})
	}
	return c, nil
}

// buildNode constructs the next node (unstarted, off the ring).
//
//age:counter grows loads by one zeroed slot alongside nodes
func (c *Cluster) buildNode() (*node, error) {
	id := len(c.nodes)
	spec := c.cfg.Node
	if c.cfg.NewNode != nil {
		spec = c.cfg.NewNode(id)
	}
	// One clock and one TTL across the fleet: the locator map and every
	// node registry must agree on when an idle session dies, or a sweep on
	// one tier strands state on the other.
	spec.Server.Clock = c.cfg.Clock
	spec.Server.SessionTTL = c.cfg.SessionTTL
	if spec.Server.Metrics == nil {
		spec.Server.Metrics = c.cfg.Metrics
	}
	srv, err := ingest.NewServer(spec.Server)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	n := &node{id: id, srv: srv}
	c.nodes = append(c.nodes, n)
	c.loads = append(c.loads, 0)
	return n, nil
}

// The locator mutation helpers below keep c.loads in lockstep with the map.
// Every entry create/drop/move/done-flip must go through them; a direct map
// write would silently skew the bounded-load accounting.

// putEntryLocked installs (or replaces) a sensor's locator entry.
//
//age:counter
func (c *Cluster) putEntryLocked(sensorID int, e *locEntry) {
	if old := c.locator[sensorID]; old != nil && !old.done {
		c.loads[old.node]--
	}
	c.locator[sensorID] = e
	if !e.done {
		c.loads[e.node]++
	}
}

// dropEntryLocked removes a sensor's locator entry if present.
//
//age:counter
func (c *Cluster) dropEntryLocked(sensorID int) {
	if e := c.locator[sensorID]; e != nil {
		if !e.done {
			c.loads[e.node]--
		}
		delete(c.locator, sensorID)
	}
}

// moveEntryLocked reassigns an entry to another node.
//
//age:counter
func (c *Cluster) moveEntryLocked(e *locEntry, to int) {
	if !e.done {
		c.loads[e.node]--
		c.loads[to]++
	}
	e.node = to
}

// markDoneLocked flips an entry's completion bit.
//
//age:counter
func (c *Cluster) markDoneLocked(e *locEntry, done bool) {
	if e.done == done {
		return
	}
	if done {
		c.loads[e.node]--
	} else {
		c.loads[e.node]++
	}
	e.done = done
}

// startNode starts a built node's workers, then puts it on the ring. A
// node binds no listener: every connection reaches it by the gateway's
// Handoff. Its workers are started when this returns; its Drain or Close
// joins them. A node a KillNode or Close stopped first stays off the ring.
func (c *Cluster) startNode(n *node) error {
	err := n.srv.ServeHandoffs()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || n.state != nodePending {
		return fmt.Errorf("cluster: node %d stopped before it went live", n.id)
	}
	n.state = nodeLive
	c.ring.add(n.id)
	return nil
}

// Start binds the gateway to addr (e.g. "127.0.0.1:0"), starts every node,
// and begins accepting in the background. It returns once every node's
// workers are started and the gateway is reachable.
func (c *Cluster) Start(addr string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.started {
		c.mu.Unlock()
		return errors.New("cluster: already started")
	}
	c.started = true
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()

	for _, n := range nodes {
		c.startNode(n) // a node killed before Start stays dead
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: gateway listen: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	c.ln = ln
	c.mu.Unlock()
	c.acceptWG.Add(1)
	go c.acceptLoop(ln)
	return nil
}

// Addr returns the gateway's bound address, or nil before Start.
func (c *Cluster) Addr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return nil
	}
	return c.ln.Addr()
}

// acceptLoop admits gateway connections under the MaxConns bound.
func (c *Cluster) acceptLoop(ln net.Listener) {
	defer c.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (Close/Drain) or fatal; gateway stops
		}
		select {
		case c.connSem <- struct{}{}:
		default:
			c.reject(conn)
			continue
		}
		if !c.track(conn) {
			<-c.connSem
			return
		}
		c.connWG.Add(1)
		go func() {
			defer c.connWG.Done()
			defer func() { <-c.connSem }()
			c.serveConn(conn)
		}()
	}
}

func (c *Cluster) track(conn net.Conn) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return false
	}
	c.conns[conn] = struct{}{}
	c.mu.Unlock()
	c.activeCnt.Add(1)
	return true
}

func (c *Cluster) untrack(conn net.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
	c.activeCnt.Add(-1)
}

// reject turns away a connection past the MaxConns bound. Under the
// rejecter bound it answers the hello with the same transient overload
// reject the nodes use; past that bound it closes the connection outright,
// so a flood of overflow connections costs at most maxRejecters goroutines.
func (c *Cluster) reject(conn net.Conn) {
	c.m.rejected.Inc()
	select {
	case c.rejectSem <- struct{}{}:
	default:
		conn.Close()
		return
	}
	c.connWG.Add(1)
	go func() {
		defer c.connWG.Done()
		defer func() { <-c.rejectSem }()
		defer conn.Close()
		// The reject ack is only valid after the hello, so consume it
		// first. conn is not tracked.
		timeout := min(c.cfg.IOTimeout, time.Second)
		if _, err := ingest.ReadHello(conn, timeout); err != nil {
			return
		}
		ingest.WriteReject(conn, ingest.StatusOverloaded, timeout)
	}()
}

// serveConn routes one sensor connection: read the hello, route, hand the
// conn to the node, and wait until the node is done with it so the locator
// claim and the connection bound cover the whole session.
func (c *Cluster) serveConn(conn net.Conn) {
	defer func() {
		c.untrack(conn)
		conn.Close()
	}()
	sensorID, err := ingest.ReadHello(conn, c.cfg.IOTimeout)
	if err != nil {
		return
	}
	n, ok := c.route(sensorID)
	if !ok {
		c.m.rejected.Inc()
		ingest.WriteReject(conn, ingest.StatusOverloaded, c.cfg.IOTimeout)
		return
	}
	c.m.routed.Inc()
	defer c.connEnd(sensorID, n)

	done, err := n.srv.Handoff(conn, sensorID)
	if err != nil {
		// The node began stopping between routing and the handoff.
		// Soft-reject: the client backs off and its next hello re-routes
		// over the updated ring.
		c.m.dialFails.Inc()
		ingest.WriteReject(conn, ingest.StatusOverloaded, c.cfg.IOTimeout)
		return
	}
	<-done
}

// route picks the node for a sensor's new connection and bumps the
// locator. Stickiness first: a sensor whose session state lives on a live
// node goes back to it, unless the state is idle, the ring (bounded-load
// variant) has since reassigned the sensor, and the holder is over its
// load ceiling — then the state migrates to the ring target before the
// connection is admitted. Idle state on a draining node always migrates.
// Sensors with no usable state are placed fresh by the ring.
func (c *Cluster) route(sensorID int) (*node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()

	target, ok := c.ringTargetLocked(sensorID)
	e := c.locator[sensorID]
	if e != nil {
		old := c.nodes[e.node]
		switch {
		case old.state == nodeDead:
			// The node died with the state; forget it and place fresh.
			c.dropEntryLocked(sensorID)
			e = nil
		case e.active > 0:
			// A live connection already carries the sensor; the node's
			// registry serializes the claim. State cannot move mid-flight.
			e.active++
			return old, true
		case old.state == nodeLive && (!ok || target == e.node || c.withinBoundLocked(e.node)):
			// The holder is live and within its ceiling: stay. The bounded
			// ring target drifts as loads shift, and drift alone is no
			// reason to move state. A join moves its ring-affected idle
			// sessions eagerly (rebalanceTo); a drain takes the holder out
			// of the live set.
			e.active++
			return old, true
		default:
			// Idle state on an overloaded or draining node: migrate it to
			// the ring target, then admit.
			if !ok {
				return nil, false
			}
			if c.migrateLocked(sensorID, old, c.nodes[target]) {
				c.moveEntryLocked(e, target)
				e.active++
				return c.nodes[target], true
			}
			if _, still := old.srv.PeekSession(sensorID); still {
				// The registry still holds the state but a racing teardown
				// hasn't released the claim yet; stay sticky and let the
				// node's own claim-wait serialize the connections.
				e.active++
				return old, true
			}
			// The state expired or vanished under us — exactly the case
			// where the node's sweep and the locator must agree: drop the
			// entry and re-admit from scratch.
			c.dropEntryLocked(sensorID)
			e = nil
		}
	}
	if !ok {
		return nil, false
	}
	c.putEntryLocked(sensorID, &locEntry{node: target, active: 1})
	return c.nodes[target], true
}

// liveLoadLocked returns the live node count and the sessions they carry.
// It runs on every routed hello, so it must stay O(nodes): the per-node
// loads come from the incrementally maintained counters, never a locator
// scan.
func (c *Cluster) liveLoadLocked() (live, total int) {
	for _, n := range c.nodes {
		if n.state == nodeLive {
			live++
			total += c.loads[n.id]
		}
	}
	return live, total
}

// ringTargetLocked is the bounded-load ring lookup over live nodes for a
// sensor about to add one session.
func (c *Cluster) ringTargetLocked(sensorID int) (int, bool) {
	live, total := c.liveLoadLocked()
	if live == 0 {
		return 0, false
	}
	cap := int(math.Ceil(loadFactor * float64(total+1) / float64(live)))
	// The ring holds live nodes only, so lookupBounded consults loads for
	// live nodes alone — entries parked on draining/dead nodes never count
	// against the bound, matching the pre-counter semantics.
	return c.ring.lookupBounded(sensorID, func(n int) int { return c.loads[n] }, cap)
}

// withinBoundLocked reports whether a live node's load, which already
// counts the sensor being routed, is within the bounded-load ceiling
// ceil(loadFactor·total/live).
func (c *Cluster) withinBoundLocked(id int) bool {
	live, total := c.liveLoadLocked()
	if live == 0 {
		return false
	}
	return c.loads[id] <= int(math.Ceil(loadFactor*float64(total)/float64(live)))
}

// migrateLocked hands a sensor's session off src to dst. Reports false
// when src no longer holds usable state — evicted, expired, or claimed by a
// racing connection — or dst refuses it (see adoptLocked).
func (c *Cluster) migrateLocked(sensorID int, src, dst *node) bool {
	st, ok := src.srv.ExportSession(sensorID)
	return ok && c.adoptLocked(st, dst)
}

// adoptLocked imports a session's ingest registry state (resume index,
// completion) into dst. It is the one session-adoption path, shared by
// live migration and node drain. Reports false when a racing connection
// already claimed the sensor on dst; its server-side resume handshake owns
// the truth, so the exported copy is dropped.
func (c *Cluster) adoptLocked(st ingest.SessionState, dst *node) bool {
	if dst.srv.ImportSession(st) != nil {
		return false
	}
	c.m.migrations.Inc()
	return true
}

// connEnd retires one routed connection's locator claim, deriving the
// entry's eviction state from the node registry — the single source of
// truth — so the two tiers cannot disagree.
func (c *Cluster) connEnd(sensorID int, n *node) {
	st, found := n.srv.PeekSession(sensorID)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.locator[sensorID]
	if e == nil || e.node != n.id {
		return
	}
	if e.active > 0 {
		e.active--
	}
	if e.active > 0 {
		return
	}
	if !found && n.state == nodeLive {
		// The registry already evicted (or never kept) the session; a
		// locator entry pointing at nothing would misroute the next hello.
		c.dropEntryLocked(sensorID)
		return
	}
	c.markDoneLocked(e, st.Done)
	e.idleSince = c.cfg.Clock()
}

// sweepLocked expires idle completed locator entries on the shared TTL, in
// lockstep with the node registries' own sweeps. The full-map pass is
// amortized to once per quarter-TTL: eviction only needs TTL-granularity
// timing, and an unconditional scan per routed hello is quadratic over a
// large fleet.
func (c *Cluster) sweepLocked() {
	if c.cfg.SessionTTL <= 0 {
		return
	}
	now := c.cfg.Clock()
	if now.Sub(c.lastSweep) < c.cfg.SessionTTL/4 {
		return
	}
	c.lastSweep = now
	for id, e := range c.locator {
		if e.done && e.active == 0 && now.Sub(e.idleSince) >= c.cfg.SessionTTL {
			delete(c.locator, id)
			c.m.evicted.Inc()
		}
	}
}

// AddNode builds, starts, and rings a new node, then rebalances: idle
// sessions whose ring primary moved to the new node migrate immediately;
// everything else — including every live connection — stays put.
func (c *Cluster) AddNode() (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	if !c.started {
		c.mu.Unlock()
		return 0, errors.New("cluster: AddNode before Start")
	}
	n, err := c.buildNode()
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := c.startNode(n); err != nil {
		return 0, err
	}
	c.rebalanceTo(n)
	return n.id, nil
}

// rebalanceTo migrates the idle sessions whose ring primary is now the
// joined node. Only ring-affected sensors move; the rest never notice.
func (c *Cluster) rebalanceTo(n *node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, e := range c.locator {
		if e.active > 0 || e.node == n.id {
			continue
		}
		primary, ok := c.ring.lookup(id)
		if !ok || primary != n.id {
			continue
		}
		old := c.nodes[e.node]
		if old.state != nodeLive && old.state != nodeDraining {
			continue
		}
		if c.migrateLocked(id, old, n) {
			c.moveEntryLocked(e, n.id)
		} else {
			c.dropEntryLocked(id)
		}
	}
}

// DrainNode performs a rolling-restart drain: the node leaves the ring (no
// new sensors route to it), its in-flight sessions run to completion (ctx
// expiry escalates to a hard stop), and every session left in its registry
// migrates to the remaining nodes. Live sensors elsewhere never notice.
func (c *Cluster) DrainNode(ctx context.Context, id int) error {
	c.mu.Lock()
	n, err := c.nodeLocked(id)
	if err == nil && n.state != nodeLive {
		err = fmt.Errorf("cluster: node %d is %s", id, n.state)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	n.state = nodeDraining
	c.ring.remove(id)
	c.mu.Unlock()

	// Outside the lock: Drain blocks on in-flight sessions (and the ctx).
	drainErr := n.srv.Drain(ctx)
	sessions := n.srv.ExportSessions()

	c.mu.Lock()
	for _, st := range sessions {
		target, ok := c.ringTargetLocked(st.SensorID)
		if !ok {
			break // no live node left; state stays on the drained server
		}
		if !c.adoptLocked(st, c.nodes[target]) {
			continue
		}
		e := c.locator[st.SensorID]
		if e == nil || e.node == id {
			c.putEntryLocked(st.SensorID, &locEntry{node: target, done: st.Done, idleSince: c.cfg.Clock()})
		}
	}
	n.state = nodeDead
	c.mu.Unlock()
	return drainErr
}

// KillNode hard-stops a node, modeling a crash: its connections are
// severed and its registry and staged state are lost. Locator entries
// pointing at it are forgotten, so affected sensors are re-admitted
// elsewhere from scratch — the protocol's idempotent delivery (frame
// indices) makes the re-sent prefix harmless to exactly-once accounting
// downstream.
func (c *Cluster) KillNode(id int) error {
	c.mu.Lock()
	n, err := c.nodeLocked(id)
	if err == nil && n.state == nodeDead {
		err = fmt.Errorf("cluster: node %d is dead", id)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	n.state = nodeDead
	c.ring.remove(id)
	// Drop through the counter-maintenance helper, not an inline decrement:
	// the ad-hoc form silently skewed loads once entries could be done
	// (atomicmix now rejects it).
	for sid, e := range c.locator {
		if e.node == id {
			c.dropEntryLocked(sid)
		}
	}
	c.mu.Unlock()

	n.srv.Close()
	return nil
}

func (c *Cluster) nodeLocked(id int) (*node, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("cluster: no node %d", id)
	}
	return c.nodes[id], nil
}

// NodeInfo describes one node for monitoring.
type NodeInfo struct {
	ID       int
	State    string
	Sessions int // locator entries assigned to the node
	Active   int // connections currently routed to it
}

// Stats is a point-in-time cluster snapshot.
type Stats struct {
	Nodes       []NodeInfo
	LocatorSize int
	ActiveConns int
}

// Stats snapshots the cluster's routing state.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	sessions := make(map[int]int)
	active := make(map[int]int)
	for _, e := range c.locator {
		sessions[e.node]++
		active[e.node] += e.active
	}
	st := Stats{LocatorSize: len(c.locator), ActiveConns: int(c.activeCnt.Load())}
	for _, n := range c.nodes {
		st.Nodes = append(st.Nodes, NodeInfo{
			ID:       n.id,
			State:    n.state.String(),
			Sessions: sessions[n.id],
			Active:   active[n.id],
		})
	}
	return st
}

// Drain gracefully stops the whole cluster: the gateway stops accepting,
// in-flight routed connections run to completion (ctx expiry severs
// them), then every live node drains. Safe to call once.
func (c *Cluster) Drain(ctx context.Context) error {
	c.mu.Lock()
	ln := c.ln
	c.ln = nil
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	c.acceptWG.Wait()

	routed := make(chan struct{})
	go func() {
		c.connWG.Wait()
		close(routed)
	}()
	var err error
	select {
	case <-routed:
	case <-ctx.Done():
		err = ctx.Err()
		c.severConns()
		<-routed
	}
	for _, n := range nodes {
		c.mu.Lock()
		prev := n.state
		if prev != nodeDead {
			n.state = nodeDead
			c.ring.remove(n.id)
		}
		c.mu.Unlock()
		switch prev {
		case nodeLive:
			if derr := n.srv.Drain(ctx); derr != nil && err == nil {
				err = derr
			}
		case nodePending:
			n.srv.Close() // never served; nothing to drain or join
		}
	}
	c.markClosed()
	return err
}

// Close hard-stops everything: gateway listener, routed connections, and
// every node. Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	c.ln = nil
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	c.severConns()
	c.acceptWG.Wait()
	c.connWG.Wait()
	for _, n := range nodes {
		c.mu.Lock()
		prev := n.state
		if prev != nodeDead {
			n.state = nodeDead
			c.ring.remove(n.id)
		}
		c.mu.Unlock()
		if prev != nodeDead {
			n.srv.Close()
		}
	}
	return nil
}

func (c *Cluster) severConns() {
	c.mu.Lock()
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

func (c *Cluster) markClosed() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}
