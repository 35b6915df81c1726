package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestSweepRunsEveryCell checks every cell runs exactly once and progress is
// monotonic with each label reported exactly once.
func TestSweepRunsEveryCell(t *testing.T) {
	const n = 23
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("cell-%d", i)
	}
	var mu sync.Mutex
	seen := make([]int, n)
	var progressDone []int
	progressLabels := map[string]int{}
	cfg := Config{Workers: 4, Progress: func(done, total int, label string) {
		if total != n {
			t.Errorf("progress total = %d, want %d", total, n)
		}
		progressDone = append(progressDone, done)
		progressLabels[label]++
	}}
	err := cfg.sweep(context.Background(), labels, func(ctx context.Context, i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("cell %d ran %d times", i, c)
		}
	}
	if len(progressDone) != n {
		t.Fatalf("progress called %d times, want %d", len(progressDone), n)
	}
	for i, d := range progressDone {
		if d != i+1 {
			t.Errorf("progress done[%d] = %d, want %d (not monotonic)", i, d, i+1)
		}
	}
	for _, l := range labels {
		if progressLabels[l] != 1 {
			t.Errorf("label %q reported %d times", l, progressLabels[l])
		}
	}
}

// TestSweepLowestCellError checks the reported error comes from the
// lowest-numbered failing cell regardless of worker count: cell 0 always
// starts before cancellation can propagate, so when it fails its error wins.
func TestSweepLowestCellError(t *testing.T) {
	labels := make([]string, 16)
	for i := range labels {
		labels[i] = fmt.Sprintf("cell-%d", i)
	}
	for _, workers := range []int{1, 4, 16} {
		cfg := Config{Workers: workers}
		err := cfg.sweep(context.Background(), labels, func(ctx context.Context, i int) error {
			return fmt.Errorf("cell %d failed", i)
		})
		if err == nil || err.Error() != "cell 0 failed" {
			t.Errorf("workers=%d: err = %v, want cell 0's error", workers, err)
		}
	}
}

// TestSweepLowestCellErrorWhenHigherCellFailsFirst forces the interleaving
// in which a higher cell fails while a lower cell is claimed but not yet
// started: the worker that claimed cell 0 is held between claim and start
// until the other worker has run and failed cell 1 and claimed cell 2.
// Cell 0 must still run, and its error must win.
func TestSweepLowestCellErrorWhenHigherCellFailsFirst(t *testing.T) {
	labels := []string{"cell-0", "cell-1", "cell-2"}
	claimed2 := make(chan struct{})
	sweepClaimHook = func(i int) {
		switch i {
		case 0:
			<-claimed2
		case 2:
			close(claimed2)
		}
	}
	defer func() { sweepClaimHook = nil }()
	var mu sync.Mutex
	var ran []int
	cfg := Config{Workers: 2}
	err := cfg.sweep(context.Background(), labels, func(ctx context.Context, i int) error {
		mu.Lock()
		ran = append(ran, i)
		mu.Unlock()
		return fmt.Errorf("cell %d failed", i)
	})
	if err == nil || err.Error() != "cell 0 failed" {
		t.Errorf("err = %v, want cell 0's error", err)
	}
	if fmt.Sprint(ran) != "[1 0]" {
		t.Errorf("ran cells %v, want [1 0]: cell 2 is above the failure, cell 0 below it", ran)
	}
}

// TestSweepErrorCancelsRemaining checks a failing cell stops the sweep: with
// one worker, cells after the failure never run.
func TestSweepErrorCancelsRemaining(t *testing.T) {
	labels := make([]string, 10)
	for i := range labels {
		labels[i] = fmt.Sprintf("cell-%d", i)
	}
	var ran []int
	cfg := Config{Workers: 1}
	err := cfg.sweep(context.Background(), labels, func(ctx context.Context, i int) error {
		ran = append(ran, i)
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 4 {
		t.Errorf("ran %v; cells after the failure should not run", ran)
	}
}

// TestSweepContextCancellation checks a canceled parent context aborts the
// sweep and surfaces ctx.Err().
func TestSweepContextCancellation(t *testing.T) {
	labels := make([]string, 100)
	for i := range labels {
		labels[i] = fmt.Sprintf("cell-%d", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var count int
	var mu sync.Mutex
	cfg := Config{Workers: 2}
	err := cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		mu.Lock()
		count++
		if count == 5 {
			cancel()
		}
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count == 100 {
		t.Error("cancellation did not stop the sweep")
	}
}

// TestSweepCellContextPropagates checks cells observe cancellation through
// the context they are handed.
func TestSweepCellContextPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Workers: 2}
	//age:allow detrand hang-detection stopwatch in a test; not experiment data
	start := time.Now()
	err := cfg.sweep(ctx, []string{"a", "b", "c"}, func(ctx context.Context, i int) error {
		<-ctx.Done() // must already be closed
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	//age:allow detrand hang-detection stopwatch in a test; not experiment data
	if time.Since(start) > 5*time.Second {
		t.Error("sweep hung on canceled context")
	}
}

// TestSweepDeterminism is the tentpole's acceptance check: the rendered
// tables must be byte-identical for any worker count at the same seed,
// because per-cell RNGs derive from cell tags and results merge in canonical
// order. Run under -race in CI, this also exercises the concurrent paths.
func TestSweepDeterminism(t *testing.T) {
	render := func(workers int) string {
		cfg := tinyConfig()
		cfg.Workers = workers
		ctx := context.Background()
		t45, err := Table45(ctx, cfg, []string{"epilepsy"})
		if err != nil {
			t.Fatal(err)
		}
		t6, err := Table6(ctx, cfg, []string{"epilepsy"})
		if err != nil {
			t.Fatal(err)
		}
		f1, err := Figure1(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return t45.Table4String() + t45.Table5String() + t6.String() + f1.String()
	}
	sequential := render(1)
	for _, workers := range []int{2, 4} {
		if got := render(workers); got != sequential {
			t.Errorf("workers=%d output differs from sequential (Workers=1)", workers)
		}
	}
}

// TestSweepMetrics checks the sweep's instruments reconcile with what
// actually ran, and that enabling them leaves cell execution untouched.
func TestSweepMetrics(t *testing.T) {
	const n = 17
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("cell-%d", i)
	}
	reg := metrics.NewRegistry()
	cfg := Config{Workers: 4, Metrics: reg}
	var mu sync.Mutex
	ran := 0
	err := cfg.sweep(context.Background(), labels, func(ctx context.Context, i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["exp.cells_total"]; got != n {
		t.Errorf("cells_total = %d, want %d", got, n)
	}
	if got := snap.Counters["exp.cells_done"]; got != int64(ran) {
		t.Errorf("cells_done = %d, ran %d", got, ran)
	}
	if got := snap.Counters["exp.cells_failed"]; got != 0 {
		t.Errorf("cells_failed = %d on a clean sweep", got)
	}
	if got := snap.Gauges["exp.workers"]; got != 4 {
		t.Errorf("workers gauge = %d, want 4", got)
	}
	if got := snap.Gauges["exp.workers_busy"]; got != 0 {
		t.Errorf("workers_busy = %d after the sweep drained", got)
	}
	if got := snap.Histograms["exp.cell_ns"].Count; got != n {
		t.Errorf("cell_ns observations = %d, want %d", got, n)
	}

	// A failing sweep counts exactly the real failures, not the
	// cancellation fallout of other cells.
	reg2 := metrics.NewRegistry()
	cfg2 := Config{Workers: 1, Metrics: reg2}
	err = cfg2.sweep(context.Background(), labels, func(ctx context.Context, i int) error {
		if i == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("failing sweep returned nil")
	}
	snap = reg2.Snapshot()
	if got := snap.Counters["exp.cells_failed"]; got != 1 {
		t.Errorf("cells_failed = %d, want the 1 real failure", got)
	}
	if got := snap.Counters["exp.cells_done"]; got != 2 {
		t.Errorf("cells_done = %d, want the 2 cells before the failure", got)
	}
}
