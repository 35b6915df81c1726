// Package cluster fronts N in-process ingest nodes with a gateway: a
// consistent-hash ring routes each sensor to a node, a bounded-load check
// keeps hot key ranges from pinning one node, and a session-locator map
// plus node-to-node handoff of registry state lets a sensor resume on a
// different node than the one that first served it — the existing
// hello/resume/final-ack handshake carries everything else.
package cluster

import (
	"sort"
)

// replicas is the virtual-node count per physical node. 128 points per
// node keeps the ring's load spread within a few percent of uniform at
// single-digit node counts while lookup stays a ~10-deep binary search.
const replicas = 128

// ringPoint is one virtual node: a position on the hash circle owned by a
// physical node.
type ringPoint struct {
	hash uint64
	node int // index into the cluster's node table
}

// ring is a consistent-hash ring over physical node indices. It is not
// concurrency-safe; the cluster guards it with its own mutex.
type ring struct {
	points []ringPoint // sorted by hash
}

// splitmix64 is the finalizer from the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash whose avalanche keeps both virtual-node positions
// and sensor keys uniform on the circle. Deterministic by design: routing
// must reproduce across runs (internal/agevet detrand).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sensorPoint maps a sensor id onto the circle.
func sensorPoint(sensorID int) uint64 {
	return splitmix64(uint64(int64(sensorID)))
}

// virtualPoint maps (node, replica) onto the circle. Node and replica are
// mixed in one word — both are small — then avalanched.
func virtualPoint(node, replica int) uint64 {
	return splitmix64(uint64(int64(node))<<20 ^ uint64(int64(replica)) ^ 0xa5a5a5a5a5a5a5a5)
}

// add inserts node's virtual points into the ring.
func (r *ring) add(node int) {
	for i := 0; i < replicas; i++ {
		r.points = append(r.points, ringPoint{hash: virtualPoint(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes node's virtual points.
func (r *ring) remove(node int) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// nodes returns the distinct node indices currently on the ring.
func (r *ring) nodes() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range r.points {
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	sort.Ints(out)
	return out
}

// lookup returns the sensor's primary node: the owner of the first virtual
// point at or clockwise of the sensor's position. ok is false on an empty
// ring.
func (r *ring) lookup(sensorID int) (node int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := sensorPoint(sensorID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the circle
	}
	return r.points[i].node, true
}

// lookupBounded is the bounded-load variant (consistent hashing with
// bounded loads): walk clockwise from the sensor's position, skipping nodes
// whose current load is at or above the cap, so a hot key range spills onto
// its ring successors instead of pinning one node. load reports a node's
// current assignment count; cap is the per-node ceiling. Falls back to the
// unbounded primary when every node is full — shedding is the caller's
// decision, not the ring's.
func (r *ring) lookupBounded(sensorID int, load func(node int) int, cap int) (node int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := sensorPoint(sensorID)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	tried := map[int]bool{}
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if tried[p.node] {
			continue
		}
		tried[p.node] = true
		if load(p.node) < cap {
			return p.node, true
		}
	}
	return r.points[start].node, true
}
