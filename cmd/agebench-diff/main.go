// Command agebench-diff is the CI perf-regression gate: it compares a
// freshly measured benchmark report (BENCH_ingest.json from cmd/ageload or
// BENCH_sweep.json from cmd/agetables -bench-json) against a committed
// baseline under bench/ and exits nonzero when a gated metric regresses.
//
// Gated metrics per kind:
//
//	ingest          frames_per_sec, mb_per_sec            higher is better
//	ingest-pace     frames_per_sec                        higher is better
//	                pacer.goodput_pct                     higher is better
//	                pacer.mean_aoi_ms                     lower is better
//	ingest-project  frames_per_sec, mb_per_sec            higher is better
//	                projection.coverage_pct               higher is better
//	ingest-cluster  frames_per_sec                        higher is better
//	                cluster.missing_frames                must not increase
//	                cluster.mismatched_frames             must not increase
//	sweep           total_seconds                         lower is better
//	                encoder_ns_per_op.{standard,age}      lower is better
//	                encoder_allocs_per_op.{standard,age}  must not increase
//
// Throughput/latency metrics fail when they regress more than -max-regress
// (default 10%) past the baseline. Allocation metrics fail on any increase
// beyond -alloc-tolerance (default 0.5 allocs/op): the hot paths are pinned
// at zero, so a real leak adds at least one allocation per op, while the
// tolerance absorbs stray background allocations in the sampling window.
//
// Baselines are committed floors, not measurements: they carry deliberate
// headroom below what the reference machine sustains, so routine runner
// noise passes and only a genuine regression trips the gate. See DESIGN.md
// ("Bench baseline policy") for when and how to refresh them.
//
// Usage:
//
//	agebench-diff -kind ingest -baseline bench/BENCH_ingest.baseline.json \
//	    -current BENCH_ingest.json -out benchdiff_ingest.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

// direction classifies how a metric is allowed to move.
type direction int

const (
	higherBetter direction = iota // fail when current < baseline*(1-maxRegress)
	lowerBetter                   // fail when current > baseline*(1+maxRegress)
	noIncrease                    // fail when current > baseline + allocTolerance
)

// metricSpec names one gated metric inside a report. Path segments are
// dot-separated JSON object keys.
type metricSpec struct {
	path string
	dir  direction
}

// kinds maps the -kind flag to the metrics gated for that report shape.
var kinds = map[string][]metricSpec{
	"ingest": {
		{"frames_per_sec", higherBetter},
		{"mb_per_sec", higherBetter},
	},
	// A paced ageload run (-pace constant): separate kind because the pacer
	// section only exists in paced reports, and the interesting failure modes
	// differ — a pacer that stalls releases shows up as collapsed goodput or
	// ballooning age of information, not raw throughput.
	"ingest-pace": {
		{"frames_per_sec", higherBetter},
		{"pacer.goodput_pct", higherBetter},
		{"pacer.mean_aoi_ms", lowerBetter},
	},
	// A projected ageload run (-project): the streaming pipeline decodes and
	// stages every delivered frame, so the gate watches both raw throughput
	// (the tap must not drag the delivery path down) and projection coverage
	// (a stalled or lossy stage shows up as staged records falling behind the
	// fleet's assigned frames).
	"ingest-project": {
		{"frames_per_sec", higherBetter},
		{"mb_per_sec", higherBetter},
		{"projection.coverage_pct", higherBetter},
	},
	// A multi-node ageload run (-nodes -kill-node -verify): throughput through
	// the gateway plus the zero-loss acceptance figures. The loss metrics are
	// gated as no-increase against a committed baseline of zero, so any missing
	// or corrupted frame fails CI outright — there is no regression tolerance
	// on correctness.
	"ingest-cluster": {
		{"frames_per_sec", higherBetter},
		{"cluster.missing_frames", noIncrease},
		{"cluster.mismatched_frames", noIncrease},
	},
	"sweep": {
		{"total_seconds", lowerBetter},
		{"encoder_ns_per_op.standard", lowerBetter},
		{"encoder_ns_per_op.age", lowerBetter},
		{"encoder_allocs_per_op.standard", noIncrease},
		{"encoder_allocs_per_op.age", noIncrease},
	},
}

// limits holds the thresholds a comparison runs under.
type limits struct {
	maxRegress     float64 // fractional slack for higher/lower-better metrics
	allocTolerance float64 // absolute slack for no-increase metrics
}

// metricResult is one row of the comparison report.
type metricResult struct {
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// ChangeFrac is (current-baseline)/baseline; 0 when the baseline is 0.
	ChangeFrac float64 `json:"change_frac"`
	Limit      string  `json:"limit"`
	Pass       bool    `json:"pass"`
}

// diffReport is the artifact written by -out: every gated metric with its
// verdict, so a red CI run shows exactly what moved without re-running.
type diffReport struct {
	Kind         string         `json:"kind"`
	BaselineFile string         `json:"baseline_file"`
	CurrentFile  string         `json:"current_file"`
	MaxRegress   float64        `json:"max_regress"`
	Results      []metricResult `json:"results"`
	Pass         bool           `json:"pass"`
}

func main() {
	log.SetFlags(0)
	var (
		kind     = flag.String("kind", "", "report shape: ingest, ingest-pace, ingest-project, ingest-cluster or sweep")
		baseline = flag.String("baseline", "", "committed baseline JSON file")
		current  = flag.String("current", "", "freshly measured JSON file")
		out      = flag.String("out", "", "write the comparison report to this JSON file")
		maxReg   = flag.Float64("max-regress", 0.10, "maximum fractional regression for throughput/latency metrics")
		allocTol = flag.Float64("alloc-tolerance", 0.5, "maximum absolute allocs/op increase")
	)
	flag.Parse()

	specs, ok := kinds[*kind]
	if !ok {
		log.Fatalf("agebench-diff: -kind %q must be one of: ingest, ingest-pace, ingest-project, ingest-cluster, sweep", *kind)
	}
	if *baseline == "" || *current == "" {
		log.Fatal("agebench-diff: -baseline and -current are required")
	}
	base, err := loadReport(*baseline)
	if err != nil {
		log.Fatalf("agebench-diff: baseline: %v", err)
	}
	cur, err := loadReport(*current)
	if err != nil {
		log.Fatalf("agebench-diff: current: %v", err)
	}

	rep, err := compare(*kind, base, cur, specs, limits{maxRegress: *maxReg, allocTolerance: *allocTol})
	if err != nil {
		log.Fatalf("agebench-diff: %v", err)
	}
	rep.BaselineFile = *baseline
	rep.CurrentFile = *current

	for _, r := range rep.Results {
		verdict := "ok"
		if !r.Pass {
			verdict = "REGRESSION"
		}
		log.Printf("%-36s baseline %12.3f  current %12.3f  (%+.1f%%)  limit %-22s %s",
			r.Metric, r.Baseline, r.Current, 100*r.ChangeFrac, r.Limit, verdict)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("agebench-diff: marshal report: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("agebench-diff: write report: %v", err)
		}
	}
	if !rep.Pass {
		log.Fatalf("agebench-diff: %s regressed past the committed baseline %s", *kind, *baseline)
	}
	log.Printf("agebench-diff: %s within baseline %s", *kind, *baseline)
}

// loadReport parses an arbitrary JSON object for metric extraction.
func loadReport(path string) (map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// lookup walks a dot-separated path through nested JSON objects and returns
// the numeric leaf.
func lookup(m map[string]any, path string) (float64, error) {
	segs := strings.Split(path, ".")
	var cur any = m
	for i, seg := range segs {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("%s: %q is not an object", path, strings.Join(segs[:i], "."))
		}
		cur, ok = obj[seg]
		if !ok {
			return 0, fmt.Errorf("%s: missing key %q", path, seg)
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("%s: not a number (%T)", path, cur)
	}
	return v, nil
}

// compare evaluates every gated metric and returns the full report. A missing
// or non-numeric metric in either file is an error, not a pass: a silently
// renamed field must never disable the gate.
func compare(kind string, base, cur map[string]any, specs []metricSpec, lim limits) (*diffReport, error) {
	rep := &diffReport{Kind: kind, MaxRegress: lim.maxRegress, Pass: true}
	for _, spec := range specs {
		b, err := lookup(base, spec.path)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		c, err := lookup(cur, spec.path)
		if err != nil {
			return nil, fmt.Errorf("current: %w", err)
		}
		r := metricResult{Metric: spec.path, Baseline: b, Current: c}
		if b != 0 {
			r.ChangeFrac = (c - b) / b
		}
		switch spec.dir {
		case higherBetter:
			r.Limit = fmt.Sprintf(">= %.3f", b*(1-lim.maxRegress))
			r.Pass = c >= b*(1-lim.maxRegress)
		case lowerBetter:
			r.Limit = fmt.Sprintf("<= %.3f", b*(1+lim.maxRegress))
			r.Pass = c <= b*(1+lim.maxRegress)
		case noIncrease:
			r.Limit = fmt.Sprintf("<= %.3f", b+lim.allocTolerance)
			r.Pass = c <= b+lim.allocTolerance
		}
		if !r.Pass {
			rep.Pass = false
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}
