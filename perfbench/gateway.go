package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/metrics"
)

// Gateway geometry: many short duty-cycled sensors through 3 nodes. Each
// sensor sends gatewayPause frames, sleeps, and reconnects for the rest.
const (
	gatewaySensors = 20000
	gatewayFrames  = 4
	gatewayNodes   = 3
	gatewayPause   = 2
)

// gatewayReplay runs one pass of every sensor through a fresh cluster.
func gatewayReplay(rec *recording, tr *tracer, led *ingestLedger) (*replayPass, error) {
	traced := tr != nil
	heap0 := liveHeapBytes()
	p := &replayPass{reg: metrics.NewRegistry()}
	h := newFrameHandler(rec, 2, traced)

	t0 := time.Now()
	cl, err := cluster.New(cluster.Config{
		Nodes: gatewayNodes,
		Node: cluster.NodeSpec{Server: ingest.ServerConfig{
			Handler:   h.handler(),
			IOTimeout: 10 * time.Second,
			Metrics:   p.reg,
		}},
		IOTimeout: 10 * time.Second,
		Metrics:   p.reg,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	addr := cl.Addr().String()
	p.startDur = time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rt0, cpu0 := readRuntime(), cpuTime()
	ck := startClock()
	p.lanes = runLanes(lanes, func(lane int, res *laneResult) {
		fail := func(s int, err error) {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("sensor %d: %w", s, err)
			}
		}
		// A lane wakes sensor k for its first connection, then sensor
		// k-1 for its second: the reconnect comes a duty cycle later,
		// and the lane never holds more than one connection.
		var prev *arenaSource
		second := func() {
			if prev == nil {
				return
			}
			if err := connect(ctx, addr, prev, h, prev.sensor*2+1, res); err != nil {
				fail(prev.sensor, err)
			}
		}
		for s := lane; s < rec.cfg.Sensors; s += lanes {
			src := &arenaSource{rec: rec, sensor: s, pauseAfter: gatewayPause}
			err := connect(ctx, addr, src, h, s*2, res)
			second()
			prev = nil
			if !errors.Is(err, errPause) {
				fail(s, fmt.Errorf("first connection did not pause: %v", err))
				continue
			}
			prev = src
		}
		second()
	})
	p.wall, p.unstolen = ck.stop()
	p.cpu = cpuTime() - cpu0
	p.rt = runtimeDelta(rt0, readRuntime())
	p.heapBytes = heapGrowth(heap0)

	drainCtx, drainCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer drainCancel()
	drainErr := cl.Drain(drainCtx)
	p.delivered = h.delivered.Load()
	p.badFrames = h.ver.bad()
	p.resumed = h.resumed.Load()
	if traced {
		led.addPass(tr, h.stamps, 2, nil)
	}
	p.checks = []check{
		{"gateway.sessions_completed", p.lanes.firstErr},
		{"gateway.drain", drainErr},
		{"gateway.frames_once_byte_equal", h.ver.err()},
		{"gateway.delivered_all", deliveredErr(p.delivered, int64(rec.totalFrames()))},
	}
	return p, nil
}

func deliveredErr(got, want int64) error {
	if got != want {
		return fmt.Errorf("%d of %d frames in final-acked sessions", got, want)
	}
	return nil
}

func runGateway(o options) (*outcome, error) {
	cfg := genConfig{
		Seed:    o.seed,
		Sensors: o.size(gatewaySensors, o.sensors),
		Frames:  o.size(gatewayFrames, o.frames),
		Encoder: o.encoder,
	}
	if cfg.Frames <= gatewayPause {
		return nil, fmt.Errorf("gateway needs more than %d frames per sensor", gatewayPause)
	}
	out := &outcome{json: map[string]float64{}}

	// Set-up: record the fleet's sealed frames.
	var rec *recording
	setups, err := medianSetup(setupRuns, func() error {
		rec = newRecording(cfg)
		_, err := rec.record(false)
		return err
	})
	if err != nil {
		return nil, err
	}
	sum := rec.digest()
	out.note("inputs: %d sensors x %d frames, %d arena bytes, sha256 %x", cfg.Sensors, cfg.Frames, len(rec.arena), sum[:8])

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	led := newLedger()
	run := &replayRun{out: out, led: led, sensors: int64(cfg.Sensors), frames: int64(rec.totalFrames())}
	base := runtime.NumGoroutine()
	n, err := repeatPasses(o.budget, 4, func(i int) error {
		var ptr *tracer
		if tracedPass(o.trace, i) {
			ptr = tr
		}
		settle(base)
		p, err := gatewayReplay(rec, ptr, &led.ingest)
		if err != nil {
			return err
		}
		run.add(i, p, ptr != nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.checks = mergeChecks(out.checks)
	out.note("passes: %d including the warm-up, %d sensors x %d connections each", n, cfg.Sensors, 2)
	if o.trace {
		led.report(out)
		out.spans = tr.snapshot()
		return out, nil
	}
	run.report(setups)
	addSessionTail(out, run.sessions)
	return out, nil
}
