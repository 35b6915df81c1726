package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/ingest"
)

// BenchmarkGatewaySession is one duty-cycled sensor connection through a
// 1-node cluster: dial, hello, route, handoff, 2 frames, final ack. Client
// and server share the process, so ns/op and allocs/op cover both ends.
func BenchmarkGatewaySession(b *testing.B) {
	const total = 2
	c := startCluster(b, Config{
		Nodes: 1,
		Node:  NodeSpec{Server: ingest.ServerConfig{Handler: newRecHandler(0, total)}},
	})
	addr := c.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := ingest.NewClient(ingest.ClientConfig{Addr: addr, SensorID: i})
		if _, err := cl.Run(ctx, &gateSource{sensorID: i, total: total, gateAt: -1, failAt: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoute is the gateway's per-connection bookkeeping alone: route
// plus connEnd for a returning sensor, on a warm locator of 20k completed
// sessions spread over 3 nodes.
func BenchmarkRoute(b *testing.B) {
	const sensors = 20000
	c := startCluster(b, Config{
		Nodes: 3,
		Node:  NodeSpec{Server: ingest.ServerConfig{Handler: newRecHandler(0, 1)}},
	})
	for id := 0; id < sensors; id++ {
		n, ok := c.route(id)
		if !ok {
			b.Fatal("no live node")
		}
		// A completed session on the routed node keeps the entry warm:
		// connEnd drops entries whose node registry holds nothing.
		if err := n.srv.ImportSession(ingest.SessionState{SensorID: id, Delivered: 1, Done: true}); err != nil {
			b.Fatal(err)
		}
		c.connEnd(id, n)
	}
	if got := c.Stats().LocatorSize; got != sensors {
		b.Fatalf("warm locator holds %d entries, want %d", got, sensors)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % sensors
		n, ok := c.route(id)
		if !ok {
			b.Fatal("no live node")
		}
		c.connEnd(id, n)
	}
	b.StopTimer()
	if got := c.Stats().LocatorSize; got != sensors {
		b.Fatalf("locator holds %d entries after the run, want %d", got, sensors)
	}
}
