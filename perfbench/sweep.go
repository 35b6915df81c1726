package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
)

// sweepSeed pins the sweep to the CI geometry's seed: its correctness
// check is a digest of the tables recorded for that seed, so -seed does
// not move it.
const sweepSeed = 7

// sweepDigest is the sha256 of the sweep's tables at sweepSeed.
const sweepDigest = "4814706a327f2547f818076e5d0cf148b8df5a94d897e5804611c9512dd8d45f"

var sweepDatasets = []string{"epilepsy", "activity"}

func sweepConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = sweepSeed
	cfg.MaxSequences = 48
	cfg.AttackSamples = 200
	cfg.Permutations = 300
	cfg.Workers = 1
	return cfg
}

// sweepPass is one run of every sweep experiment.
type sweepPass struct {
	wall      time.Duration
	unstolen  time.Duration
	cpu       time.Duration
	rt        rtDelta
	heapBytes uint64
	cells     int
	digest    string
	expS      map[string]float64
	cellMs    []float64
}

// runSweepTables runs the experiments in order, recording an experiment
// span per call and a cell span per progress callback when traced.
func runSweepTables(ctx context.Context, tr *tracer) (*sweepPass, error) {
	heap0 := liveHeapBytes()
	p := &sweepPass{expS: map[string]float64{}}
	cfg := sweepConfig()
	var expSpan int32 = -1
	var last time.Time
	cfg.Progress = func(done, total int, label string) {
		// A finished sweep holds only its small tables; its largest state
		// is a just-prepared dataset workload, so the heap is read there,
		// after a forced collection, at the same points every pass.
		if strings.HasPrefix(label, "prepare/") {
			if live := heapGrowth(heap0); live > p.heapBytes {
				p.heapBytes = live
			}
		}
		p.cells++
		now := time.Now()
		p.cellMs = append(p.cellMs, float64(now.Sub(last))/1e6)
		tr.add("experiments.cell", expSpan, expSpan, last, now)
		last = now
	}
	h := sha256.New()
	var keep []any
	experiment := func(name string, run func() (string, any, error)) error {
		start := time.Now()
		last = start
		expSpan = tr.begin("experiments."+name, -1, -1, start)
		text, res, err := run()
		end := time.Now()
		tr.end(expSpan, end)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p.expS[name] = end.Sub(start).Seconds()
		fmt.Fprintf(h, "%s\n%s\n", name, text)
		keep = append(keep, res)
		return nil
	}
	str := func(s fmt.Stringer, err error) (string, any, error) {
		if err != nil {
			return "", nil, err
		}
		return s.String(), s, nil
	}
	rt0, cpu0 := readRuntime(), cpuTime()
	ck := startClock()
	steps := []struct {
		name string
		run  func() (string, any, error)
	}{
		{"table1", func() (string, any, error) { return str(experiments.Table1(ctx, cfg)) }},
		{"table45", func() (string, any, error) {
			r, err := experiments.Table45(ctx, cfg, sweepDatasets)
			if err != nil {
				return "", nil, err
			}
			return r.Table4String() + "\n" + r.Table5String(), r, nil
		}},
		{"table6", func() (string, any, error) { return str(experiments.Table6(ctx, cfg, sweepDatasets)) }},
		{"table7", func() (string, any, error) {
			rows, err := experiments.Table7(ctx, cfg, sweepDatasets)
			return experiments.Table7String(rows), rows, err
		}},
		{"table8", func() (string, any, error) { return str(experiments.Table8(ctx, cfg, sweepDatasets)) }},
		{"figure6", func() (string, any, error) { return str(experiments.Figure6(ctx, cfg, sweepDatasets)) }},
	}
	for _, s := range steps {
		if err := experiment(s.name, s.run); err != nil {
			return nil, err
		}
	}
	p.wall, p.unstolen = ck.stop()
	p.cpu = cpuTime() - cpu0
	p.rt = runtimeDelta(rt0, readRuntime())
	p.digest = hex.EncodeToString(h.Sum(nil))
	if len(keep) != len(steps) {
		return nil, fmt.Errorf("%d of %d experiments produced results", len(keep), len(steps))
	}
	return p, nil
}

// digestErr reports passes whose tables differ from the recorded digest.
func digestErr(digests []string, want string) error {
	var bad []string
	for i, d := range digests {
		if d != want {
			bad = append(bad, fmt.Sprintf("pass %d digest %s, recorded %s", i, d, want))
		}
	}
	return listErr(bad)
}

func runSweep(o options) (*outcome, error) {
	out := &outcome{json: map[string]float64{}}
	ctx := context.Background()

	// Set-up: load and fit each dataset's workload, the per-dataset step
	// every experiment starts from.
	setups, err := medianSetup(setupRuns, func() error {
		for _, name := range sweepDatasets {
			if _, err := experiments.PrepareWorkload(name, sweepConfig()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	setupS := median(setups)
	out.note("set-up: %s s", fmtList(setups))

	var tr *tracer
	min := 1
	if o.trace {
		tr, min = newTracer(), 2
	}
	led := newLedger()
	var secs, cpuUs, heap, cellsPerS []float64
	var digests []string
	n, err := repeatPasses(o.budget, min, func(i int) error {
		ptr := tr
		if o.trace && i%2 == 0 {
			ptr = nil
		}
		p, err := runSweepTables(ctx, ptr)
		if err != nil {
			return err
		}
		digests = append(digests, p.digest)
		out.attempted += int64(p.cells)
		rate := float64(p.cells) / p.unstolen.Seconds()
		if ptr == nil {
			led.untraced = append(led.untraced, rate)
			secs = append(secs, p.wall.Seconds())
			cellsPerS = append(cellsPerS, rate)
			cpuUs = append(cpuUs, float64(p.cpu.Microseconds())/float64(p.cells))
			heap = append(heap, float64(p.heapBytes)/(1<<20))
			return nil
		}
		led.traced = append(led.traced, rate)
		for name, s := range p.expS {
			led.expSeconds[name] = append(led.expSeconds[name], s)
		}
		led.cellMs = append(led.cellMs, p.cellMs...)
		led.rt.add(p.rt)
		led.cpu += p.cpu
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = digestErr(digests, sweepDigest)
	out.check("sweep.tables_match_recorded_digest", err)
	if err != nil {
		out.failed = 1
	}
	out.note("passes: %d, sweep seed %d (pinned), digest %s", n, sweepSeed, digests[0])

	if o.trace {
		led.report(out)
		out.spans = tr.snapshot()
		return out, nil
	}
	out.note("per pass: sweep_s %s; cells per unstolen second %s; live_heap_mb %s", fmtList(secs), fmtList(cellsPerS), fmtList(heap))
	out.add("sweep_s", "s", median(secs), len(secs))
	out.add("live_heap_mb", "MB", median(heap), len(heap))
	out.add("setup_s", "s", setupS, len(setups))
	out.json["throughput_per_s"] = median(cellsPerS)
	out.json["cpu_us_per_op"] = median(cpuUs)
	out.json["live_heap_mb"] = median(heap)
	out.json["setup_s"] = setupS
	return out, nil
}
