package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// This file implements the deterministic parallel sweep runner. Every
// experiment is decomposed into independent cells (one (dataset, policy,
// encoder, budget) simulation, one attack evaluation, one compressed
// sequence, ...) that are enumerated up front in a canonical order. A pool
// of workers pulls cell indices from an atomic counter and each cell writes
// only to its own result slot, so the assembled output is a pure function of
// the cell list — never of worker identity, scheduling, or completion order.
//
// The determinism contract (see DESIGN.md):
//
//   - Cell seeds derive from Config.Seed and the cell's canonical tag via
//     Config.newRNG, never from worker identity or completion order.
//   - Results are merged in cell-enumeration order, so the rendered tables
//     are byte-identical for any worker count, including Workers=1.
//   - On failure, the error from the lowest-numbered failing cell is
//     reported, keeping even the failure mode schedule-independent. A
//     failure cancels and skips only the cells above it; every cell below
//     it runs to completion, since one of them may fail too and win.

// sweep runs n cells (labels[i] names cell i) across the configured worker
// pool. run must confine its writes to cell i's result slot. The first
// error — by cell order, not completion order — cancels the cells above it
// and is returned. A canceled parent context returns ctx.Err().
func (c Config) sweep(ctx context.Context, labels []string, run func(ctx context.Context, cell int) error) error {
	n := len(labels)
	if n == 0 {
		return ctx.Err()
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Sweep instrumentation (all instruments are nil-safe no-ops without a
	// registry). exp.workers_busy tracks utilization: its value at any
	// instant is the number of workers inside run().
	cellsTotal := c.Metrics.Counter("exp.cells_total")
	cellsDone := c.Metrics.Counter("exp.cells_done")
	cellsFailed := c.Metrics.Counter("exp.cells_failed")
	cellNs := c.Metrics.Histogram("exp.cell_ns", metrics.LatencyBuckets()...)
	busy := c.Metrics.Gauge("exp.workers_busy")
	if c.Metrics != nil {
		c.Metrics.Gauge("exp.workers").Set(int64(workers))
	}
	cellsTotal.Add(int64(n))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstErr error
		firstIdx = n
		// cancels[i] is in-flight cell i's cancel func (nil otherwise), so a
		// failure can abort the cells above it and no others.
		cancels = make([]context.CancelFunc, n)
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if sweepClaimHook != nil {
					sweepClaimHook(i)
				}
				if i >= n || ctx.Err() != nil {
					return
				}
				mu.Lock()
				if i > firstIdx {
					// A lower cell already failed, and claims only grow:
					// nothing this worker could still run can matter.
					mu.Unlock()
					return
				}
				// Only the parent, or a failure in a lower cell, cancels a
				// cell: cells below the lowest failure run to completion,
				// so the reported error cannot depend on the schedule.
				cellCtx, cellCancel := context.WithCancel(ctx)
				cancels[i] = cellCancel
				mu.Unlock()
				busy.Add(1)
				//age:allow detrand cell-latency observability (PR-3 metrics); never feeds experiment results
				start := time.Now()
				err := run(cellCtx, i)
				cellNs.ObserveSince(start)
				busy.Add(-1)
				mu.Lock()
				cancels[i] = nil
				cellCancel()
				if err != nil {
					// Cancellation fallout from another cell's failure is
					// not this cell's error; real errors keep the lowest
					// cell index so the reported failure is
					// schedule-independent.
					if !errors.Is(err, context.Canceled) {
						cellsFailed.Inc()
						if i < firstIdx {
							firstErr, firstIdx = err, i
							for _, cancelCell := range cancels[i+1:] {
								if cancelCell != nil {
									cancelCell()
								}
							}
						}
					}
					mu.Unlock()
					continue
				}
				done++
				cellsDone.Inc()
				if c.Progress != nil {
					// Serialized under the mutex so callbacks observe a
					// monotonic done count.
					c.Progress(done, n, labels[i])
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// sweepClaimHook, when non-nil, is called by a sweep worker right after it
// claims cell index i (i may be past the last cell). Tests use it to force
// interleavings; it must be set before the sweep starts and not mutated
// during it.
var sweepClaimHook func(i int)

// prepareWorkloads loads and fits one workload per dataset, in parallel (a
// workload's policy fitting is the expensive per-dataset setup). When
// needSkip is set the Skip RNN is trained eagerly here rather than lazily
// inside simulation cells, keeping the heavy training step visible in
// progress output. The returned map is read-only after this call, and its
// workloads are safe to share across sweep workers.
func prepareWorkloads(ctx context.Context, cfg Config, datasets []string, needSkip bool) (map[string]*Workload, error) {
	out := make([]*Workload, len(datasets))
	labels := make([]string, len(datasets))
	for i, name := range datasets {
		labels[i] = "prepare/" + name
	}
	err := cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		w, err := PrepareWorkload(datasets[i], cfg)
		if err != nil {
			return err
		}
		if needSkip {
			if _, err := w.SkipModel(); err != nil {
				return err
			}
		}
		out[i] = w
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := make(map[string]*Workload, len(datasets))
	for i, name := range datasets {
		m[name] = out[i]
	}
	return m, nil
}
