package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// manifestJSON declares every metric the program prints by name: its
// unit, its direction (higher, lower, or zero = must be zero) and the
// workloads it is measured on.
//
//go:embed metrics.json
var manifestJSON []byte

type declared struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Direction string   `json:"direction"`
	Workloads []string `json:"workloads"`
	Means     string   `json:"means,omitempty"`
}

func (d declared) on(workload string) bool {
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

type manifest struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
	// JSONEndToEnd gives, per workload, the meaning of each workload-neutral
	// end-to-end figure in BENCHMARK.json.
	JSONEndToEnd []declared `json:"json_end_to_end"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// declarations is the manifest cross-checked against BENCHMARK.json.
type declarations struct {
	man   manifest
	bench benchFile
}

func loadDeclarations(benchPath string) (*declarations, error) {
	var d declarations
	if err := json.Unmarshal(manifestJSON, &d.man); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return nil, fmt.Errorf("benchmark declaration: %w", err)
	}
	if err := json.Unmarshal(raw, &d.bench); err != nil {
		return nil, fmt.Errorf("%s: %w", benchPath, err)
	}
	if err := sameSet(d.man.PerLayer, d.bench.PerLayer); err != nil {
		return nil, fmt.Errorf("per_layer: metrics.json and %s disagree: %w", benchPath, err)
	}
	if err := sameSet(d.man.JSONEndToEnd, d.bench.EndToEnd); err != nil {
		return nil, fmt.Errorf("end_to_end: metrics.json and %s disagree: %w", benchPath, err)
	}
	return &d, nil
}

// sameSet reports whether the manifest and BENCHMARK.json declare the
// same names with the same units and directions.
func sameSet(man []declared, bench []benchMetric) error {
	want := map[string]benchMetric{}
	for _, b := range bench {
		want[b.Name] = b
	}
	if len(want) != len(man) {
		return fmt.Errorf("%d declared here, %d there", len(man), len(want))
	}
	for _, m := range man {
		b, ok := want[m.Name]
		if !ok {
			return fmt.Errorf("%s missing", m.Name)
		}
		if b.Unit != m.Unit {
			return fmt.Errorf("%s: unit %q vs %q", m.Name, m.Unit, b.Unit)
		}
		if dir := betterOf(m.Direction); dir != b.Better {
			return fmt.Errorf("%s: direction %q vs better %q", m.Name, m.Direction, b.Better)
		}
	}
	return nil
}

// betterOf maps a manifest direction to BENCHMARK.json's "better"; a
// must-be-zero figure is lower-better.
func betterOf(direction string) string {
	if direction == "zero" {
		return "lower"
	}
	return direction
}

// expected lists what a run of workload in the given mode must print.
func (d *declarations) expected(workload string, traced bool) []declared {
	if traced {
		return d.man.PerLayer
	}
	var out []declared
	for _, m := range d.man.EndToEnd {
		if m.on(workload) {
			out = append(out, m)
		}
	}
	return out
}

// verify checks the run printed exactly the declared metrics, that
// must-be-zero figures are zero, and that per-layer figures of layers the
// workload bypasses read zero.
func (d *declarations) verify(opts options, out *outcome) []check {
	want := d.expected(opts.workload, opts.trace)
	byName := map[string]declared{}
	for _, w := range want {
		byName[w.Name] = w
	}
	var problems, bypass, zeros []string
	seen := map[string]bool{}
	for _, m := range out.metrics {
		w, ok := byName[m.Name]
		switch {
		case !ok:
			problems = append(problems, "undeclared "+m.Name)
			continue
		case seen[m.Name]:
			problems = append(problems, "duplicate "+m.Name)
		case w.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s unit %q, declared %q", m.Name, m.Unit, w.Unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, m.Name+" not finite")
		}
		seen[m.Name] = true
		if w.Direction == "zero" && m.Value != 0 {
			zeros = append(zeros, fmt.Sprintf("%s=%g", m.Name, m.Value))
		}
		if opts.trace && !w.on(opts.workload) && m.Value != 0 {
			bypass = append(bypass, fmt.Sprintf("%s=%g", m.Name, m.Value))
		}
	}
	for _, w := range want {
		if !seen[w.Name] {
			problems = append(problems, "missing "+w.Name)
		}
	}
	jsonWant := d.bench.EndToEnd
	if opts.trace {
		jsonWant = d.bench.PerLayer
	}
	for _, b := range jsonWant {
		if _, ok := out.json[b.Name]; !ok {
			problems = append(problems, "missing result metric "+b.Name)
		}
	}
	if len(out.json) != len(jsonWant) {
		problems = append(problems, fmt.Sprintf("%d result metrics, %d declared", len(out.json), len(jsonWant)))
	}
	checks := []check{{Name: "metrics.declared", Err: listErr(problems)}}
	checks = append(checks, check{Name: "metrics.must_be_zero", Err: listErr(zeros)})
	if opts.trace {
		checks = append(checks, check{Name: "layers.bypassed_read_zero", Err: listErr(bypass)})
	}
	return checks
}

func listErr(items []string) error {
	if len(items) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(items, "; "))
}

// jsonMetrics shapes the result line's metrics object.
func (d *declarations) jsonMetrics(traced bool, values map[string]float64) map[string]any {
	list := d.bench.EndToEnd
	if traced {
		list = d.bench.PerLayer
	}
	out := map[string]any{}
	for _, b := range list {
		if v, ok := values[b.Name]; ok {
			out[b.Name] = map[string]any{"value": v, "unit": b.Unit}
		}
	}
	return out
}
