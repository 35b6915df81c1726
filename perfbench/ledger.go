package main

import (
	"time"

	"repro/internal/metrics"
)

// sweepExperiments are the experiments the sweep workload runs, in order;
// each reports experiments.<name>_s.
var sweepExperiments = []string{"table1", "table45", "table6", "table7", "table8", "figure6"}

// ledger accumulates the per-layer figures of a traced run's traced
// passes. Every workload reports every field; a layer the workload never
// calls reads zero, which the run checks against metrics.json.
type ledger struct {
	// Sensor phase (stream).
	encodeNs, sealNs, sensorFrames int64
	// Projection tap (stream).
	stageNs, stageN, openNs, openN, decodeNs, decodeN int64
	foldLagMax                                        int64
	closeMs                                           []float64
	// Transport.
	ingest     ingestLedger
	counters   map[string]int64 // summed metrics-registry counters
	resumed    int64            // sessions opened with delivered > 0
	sensors    int64
	softRej    int64
	reconnects int64
	// Experiments (sweep).
	expSeconds map[string][]float64
	cellMs     []float64
	// Process and runtime over the traced timed phases.
	frames int64
	cpu    time.Duration
	rt     rtDelta
	// Throughput of untraced and traced passes, for the overhead.
	untraced, traced []float64
}

func newLedger() *ledger {
	return &ledger{counters: map[string]int64{}, expSeconds: map[string][]float64{}}
}

func (l *ledger) addCounters(reg *metrics.Registry) {
	for name, v := range reg.Snapshot().Counters {
		l.counters[name] += v
	}
}

func (l *ledger) addTap(t *stageTap) {
	l.stageNs += t.stageNs.Load()
	l.stageN += t.stageN.Load()
	l.openNs += t.openNs.Load()
	l.openN += t.openN.Load()
	l.decodeNs += t.decodeNs.Load()
	l.decodeN += t.decodeN.Load()
}

// report emits every per-layer metric, in metrics.json order.
func (l *ledger) report(out *outcome) {
	out.add("core.encode_ns", "ns/op", perOp(l.encodeNs, l.sensorFrames), int(l.sensorFrames))
	out.add("seccomm.seal_ns", "ns/op", perOp(l.sealNs, l.sensorFrames), int(l.sensorFrames))
	out.add("seccomm.open_ns", "ns/op", perOp(l.openNs, l.openN), int(l.openN))
	out.add("core.decode_ns", "ns/op", perOp(l.decodeNs, l.decodeN), int(l.decodeN))
	out.add("projection.stage_ns", "ns/op", perOp(l.stageNs, l.stageN), int(l.stageN))
	out.add("projection.stage_self_ns", "ns/op", perOp(l.stageNs-l.openNs-l.decodeNs, l.stageN), int(l.stageN))
	out.add("projection.fold_lag_max", "count", float64(l.foldLagMax), len(l.closeMs))
	out.add("projection.close_ms", "ms/op", median(l.closeMs), len(l.closeMs))
	l.ingest.report(out)
	c := l.counters
	out.add("cluster.routed", "count", float64(c["cluster.routed"]), 1)
	out.add("cluster.migrations", "count", float64(c["cluster.migrations"]), 1)
	out.add("cluster.rejected", "count", float64(c["cluster.rejected"]), 1)
	out.add("cluster.node_dial_failures", "count", float64(c["cluster.node_dial_failures"]), 1)
	out.add("cluster.proxy_bytes_per_frame", "B", perOp(c["cluster.proxy_bytes"], l.frames), int(l.frames))
	out.add("ingest.resumes_per_sensor", "ratio", perOp(l.resumed, l.sensors), int(l.sensors))
	out.add("ingest.soft_rejects", "count", float64(l.softRej), 1)
	out.add("ingest.reconnects", "count", float64(l.reconnects), 1)
	out.add("ingest.shed", "count", float64(c["ingest.shed_overload"]+c["ingest.shed_dropped"]), 1)
	for _, e := range sweepExperiments {
		out.add("experiments."+e+"_s", "s/op", median(l.expSeconds[e]), len(l.expSeconds[e]))
	}
	out.add("experiments.cell_ms_p50", "ms/op", median(l.cellMs), len(l.cellMs))
	var maxCell float64
	for _, m := range l.cellMs {
		if m > maxCell {
			maxCell = m
		}
	}
	out.add("experiments.cells", "count", float64(len(l.cellMs)), len(l.cellMs))
	out.add("experiments.cell_ms_max", "ms/op", maxCell, len(l.cellMs))
	out.add("go.alloc_bytes_per_frame", "B", perOp(int64(l.rt.AllocBytes), l.frames), int(l.frames))
	gcPct := 0.0
	if l.cpu > 0 {
		gcPct = 100 * l.rt.GCCPU / l.cpu.Seconds()
	}
	out.add("go.gc_cpu_pct", "%", gcPct, 1)
	var waits uint64
	for _, n := range l.rt.SchedCounts {
		waits += n
	}
	out.add("go.sched_wait_p99_us", "us", 1e6*histQuantile(l.rt.SchedCounts, l.rt.SchedBounds, 0.99), int(waits))
	out.add("trace.overhead_pct", "%", overheadPct(l.untraced, l.traced), len(l.traced))
	for _, m := range out.metrics {
		out.json[m.Name] = m.Value
	}
}

func perOp(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// overheadPct is how much slower traced passes ran than untraced ones,
// by median throughput.
func overheadPct(untraced, traced []float64) float64 {
	u, t := median(untraced), median(traced)
	if u == 0 || t == 0 {
		return 0
	}
	return 100 * (u - t) / u
}
