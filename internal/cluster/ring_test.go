package cluster

import (
	"testing"
)

func ringMap(r *ring, keys int) map[int]int {
	m := make(map[int]int, keys)
	for k := 0; k < keys; k++ {
		n, ok := r.lookup(k)
		if !ok {
			panic("lookup on non-empty ring failed")
		}
		m[k] = n
	}
	return m
}

func TestRingLookupDeterministicAndSpread(t *testing.T) {
	r := &ring{}
	for n := 0; n < 3; n++ {
		r.add(n)
	}
	const keys = 3000
	first := ringMap(r, keys)
	second := ringMap(r, keys)
	counts := map[int]int{}
	for k, n := range first {
		if second[k] != n {
			t.Fatalf("key %d: lookup not deterministic (%d then %d)", k, n, second[k])
		}
		counts[n]++
	}
	for n := 0; n < 3; n++ {
		if counts[n] < keys/6 {
			t.Errorf("node %d owns %d of %d keys; spread too skewed", n, counts[n], keys)
		}
	}
}

// TestRingJoinMovesOnlyAffectedKeys is the consistent-hashing contract the
// cluster's rebalance relies on: adding a node may claim keys, but no key
// moves between pre-existing nodes.
func TestRingJoinMovesOnlyAffectedKeys(t *testing.T) {
	r := &ring{}
	for n := 0; n < 3; n++ {
		r.add(n)
	}
	const keys = 3000
	before := ringMap(r, keys)
	r.add(3)
	after := ringMap(r, keys)
	moved := 0
	for k := 0; k < keys; k++ {
		if after[k] == before[k] {
			continue
		}
		if after[k] != 3 {
			t.Fatalf("key %d moved %d -> %d; only moves onto the joined node are allowed",
				k, before[k], after[k])
		}
		moved++
	}
	if moved == 0 {
		t.Error("no key moved to the joined node; join did nothing")
	}
	if moved > keys/2 {
		t.Errorf("%d of %d keys moved on a 3->4 join; expected roughly 1/4", moved, keys)
	}
}

func TestRingLeaveMovesOnlyOrphanedKeys(t *testing.T) {
	r := &ring{}
	for n := 0; n < 4; n++ {
		r.add(n)
	}
	const keys = 3000
	before := ringMap(r, keys)
	r.remove(2)
	after := ringMap(r, keys)
	for k := 0; k < keys; k++ {
		if before[k] != 2 && after[k] != before[k] {
			t.Fatalf("key %d on surviving node %d moved to %d after an unrelated leave",
				k, before[k], after[k])
		}
		if after[k] == 2 {
			t.Fatalf("key %d still maps to the removed node", k)
		}
	}
}

// TestRingBoundedLoad fills nodes sequentially and asserts the bounded
// lookup never assigns past the cap while any node has room.
func TestRingBoundedLoad(t *testing.T) {
	r := &ring{}
	for n := 0; n < 3; n++ {
		r.add(n)
	}
	const keys, cap = 300, 101 // cap ~ keys/nodes: forces spill on hot ranges
	loads := map[int]int{}
	for k := 0; k < keys; k++ {
		n, ok := r.lookupBounded(k, func(n int) int { return loads[n] }, cap)
		if !ok {
			t.Fatal("bounded lookup failed on a non-empty ring")
		}
		if loads[n] >= cap {
			t.Fatalf("key %d assigned to node %d already at cap %d", k, n, cap)
		}
		loads[n]++
	}
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != keys {
		t.Fatalf("assigned %d of %d keys", total, keys)
	}
}

// TestRingBoundedLoadFallsBack proves the full-ring fallback: with every
// node at cap the primary still answers — shedding is the caller's call.
func TestRingBoundedLoadFallsBack(t *testing.T) {
	r := &ring{}
	r.add(0)
	r.add(1)
	primary, _ := r.lookup(42)
	n, ok := r.lookupBounded(42, func(int) int { return 100 }, 10)
	if !ok || n != primary {
		t.Fatalf("full ring: got (%d, %v), want primary %d", n, ok, primary)
	}
}

func TestRingEmpty(t *testing.T) {
	r := &ring{}
	if _, ok := r.lookup(1); ok {
		t.Error("lookup on empty ring reported ok")
	}
	if _, ok := r.lookupBounded(1, func(int) int { return 0 }, 1); ok {
		t.Error("bounded lookup on empty ring reported ok")
	}
}
