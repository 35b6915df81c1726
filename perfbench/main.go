// Command perfbench measures the repository's frame path end to end and
// layer by layer on three workloads:
//
//   - stream: recorded sealed AGE frames from 256 long sensor sessions
//     replayed into one ingest server whose projection engine opens,
//     decodes, stages and folds every frame;
//   - gateway: 20k sensors × 4 frames through a 3-node cluster gateway,
//     each sensor reconnecting once so its second hello resumes;
//   - sweep: the CI experiment sweep in-process on one worker.
//
// Load is a closed loop of two client lanes:
// each lane runs one sensor session at a time and starts the next when
// Run returns. Inputs come from -seed and are generated before any timed
// phase. Every run re-checks its outputs and exits non-zero when a check
// fails. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set, both as declared in BENCHMARK.json. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 20   # all three in turn
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// lanes is the closed loop's client count: this machine's nproc, so the
// load never exceeds what the cores can serve and measures the program
// rather than its shedding.
const lanes = 2

// options is one run's parameters. Zero sizes select the workload's
// defaults; tests shrink them and switch the encoder.
type options struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	sensors  int
	frames   int
	encoder  string
}

func (o options) size(def, override int) int {
	if override > 0 {
		return override
	}
	return def
}

// metric is one reported figure. Samples is how many measurements it
// summarises (passes, sessions, calls).
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// check is one correctness check's verdict (nil Err = passed).
type check struct {
	Name string
	Err  error
}

// outcome is a workload run's result.
type outcome struct {
	metrics   []metric           // the figures metrics.json declares for this mode
	json      map[string]float64 // the BENCHMARK.json figures for this mode
	checks    []check
	attempted int64
	failed    int64
	spans     []span
	notes     []string
}

func (o *outcome) add(name, unit string, v float64, samples int) {
	o.metrics = append(o.metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

func (o *outcome) check(name string, err error) {
	o.checks = append(o.checks, check{Name: name, Err: err})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*outcome, error){
	"stream":  runStream,
	"gateway": runGateway,
	"sweep":   runSweep,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: stream, gateway, sweep, or all three in turn")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Int("seconds", 20, "measurement budget per run in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		bench    = fs.String("benchmark", "BENCHMARK.json", "benchmark declaration to check the output against")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"stream", "gateway", "sweep"}
	} else if _, ok := workloads[*workload]; !ok {
		return fail(fmt.Errorf("unknown -workload %q (want stream, gateway, sweep or all)", *workload))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds < 1 {
		return fail(errors.New("-seconds must be at least 1"))
	}
	decl, err := loadDeclarations(*bench)
	if err != nil {
		return fail(err)
	}
	code := 0
	for _, name := range names {
		opts := options{
			workload: name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
			trace: *trace == 1, encoder: "age",
		}
		if err := runWorkload(opts, decl, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// errIncorrect reports a run whose correctness checks failed; its result
// line is already printed.
var errIncorrect = errors.New("correctness checks failed")

// runWorkload runs one workload and prints its report, ending with the
// JSON result line.
func runWorkload(opts options, decl *declarations, stdout io.Writer) error {
	cpu0 := readCPUStat()
	out, err := workloads[opts.workload](opts)
	if err != nil {
		return err
	}
	steal := stealPct(cpu0, readCPUStat())
	trace := 0
	if opts.trace {
		trace = 1
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%d lanes=%d nproc=%d gomaxprocs=%d go=%s host_steal_pct=%.3f\n",
		opts.workload, opts.seed, trace, lanes, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "perfbench: %s\n", n)
	}
	for _, m := range out.metrics {
		fmt.Fprintf(stdout, "perfbench: metric %-34s %16.6g %-9s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if opts.trace {
		printLedger(stdout, out.spans)
		path := filepath.Join(".bench_build", "perfbench", "trace-"+opts.workload+".jsonl")
		if err := writeSpans(path, out.spans); err != nil {
			out.check("trace.written", err)
		} else {
			fmt.Fprintf(stdout, "perfbench: wrote %d spans to %s\n", len(out.spans), path)
		}
	}
	out.checks = append(out.checks, decl.verify(opts, out)...)
	correct := true
	for _, c := range out.checks {
		status := "ok"
		if c.Err != nil {
			status = "FAIL: " + c.Err.Error()
			correct = false
		}
		fmt.Fprintf(stdout, "perfbench: check %-36s %s\n", c.Name, status)
	}
	if !correct && out.failed == 0 {
		out.failed = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   decl.jsonMetrics(opts.trace, out.json),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return errIncorrect
	}
	return nil
}

// printLedger prints each span name's count, total and self time.
func printLedger(w io.Writer, spans []span) {
	fmt.Fprintf(w, "perfbench: ledger %-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, ls := range layerStats(spans) {
		fmt.Fprintf(w, "perfbench: ledger %-28s %9d %12.3f %12.3f\n", ls.Name, ls.Count,
			float64(ls.Total)/1e6, float64(ls.Self)/1e6)
	}
}

// repeatPasses runs pass at least min times, then keeps going while one
// more pass of average length still ends within a tenth past the budget.
// Each call gets its pass number.
func repeatPasses(budget time.Duration, min int, pass func(i int) error) (int, error) {
	start := time.Now()
	n := 0
	for {
		if n >= min {
			spent := time.Since(start)
			if spent+spent/time.Duration(n) > budget+budget/10 {
				return n, nil
			}
		}
		if err := pass(n); err != nil {
			return n, err
		}
		n++
	}
}

// setupRuns is how many times a workload sets up to report setup_s.
const setupRuns = 5

// medianSetup runs setup k times, each from a freshly collected heap, and
// returns each one's unstolen duration in seconds; the last run's result
// is the one the workload keeps.
func medianSetup(k int, setup func() error) ([]float64, error) {
	ds := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		runtime.GC()
		ck := startClock()
		if err := setup(); err != nil {
			return nil, err
		}
		_, unstolen := ck.stop()
		ds = append(ds, unstolen.Seconds())
	}
	return ds, nil
}

// fmtList prints a list of figures compactly.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
