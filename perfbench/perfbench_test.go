package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/projection"
)

// digestSeedEnv switches the test binary into printing one recording's
// digest: a fresh process numbers its sealers from zero, so two children
// with one seed must print the same bytes.
const digestSeedEnv = "PERFBENCH_DIGEST_SEED"

func TestMain(m *testing.M) {
	if v := os.Getenv(digestSeedEnv); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rec := newRecording(genConfig{Seed: seed, Sensors: 8, Frames: 64, Encoder: "age"})
		if _, err := rec.record(false); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%x\n", rec.digest())
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func childDigest(t *testing.T, seed int64) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), digestSeedEnv+"="+strconv.FormatInt(seed, 10))
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("digest child for seed %d: %v", seed, err)
	}
	return strings.TrimSpace(string(out))
}

func TestGeneratorDeterministicBySeed(t *testing.T) {
	a, b, c := childDigest(t, 1), childDigest(t, 1), childDigest(t, 2)
	if a != b {
		t.Fatalf("seed 1 gave two input digests: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 gave the same input digest %s", a)
	}
}

func small(seed int64, workload string) options {
	return options{workload: workload, seed: seed, budget: time.Millisecond, sensors: 8, frames: 128, encoder: "age"}
}

func failedChecks(out *outcome) []string {
	var bad []string
	for _, c := range out.checks {
		if c.Err != nil {
			bad = append(bad, c.Name+": "+c.Err.Error())
		}
	}
	return bad
}

func TestStreamChecksPassOnOtherSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		out, err := runStream(small(seed, "stream"))
		if err != nil {
			t.Fatal(err)
		}
		if bad := failedChecks(out); len(bad) > 0 {
			t.Errorf("seed %d: %v", seed, bad)
		}
		if len(out.checks) < 7 {
			t.Errorf("seed %d: only %d checks ran", seed, len(out.checks))
		}
	}
}

// The negative control: with the Standard encoder event frames are
// bigger, so the wire size carries the label and the privacy check must
// fail, while every other check still passes.
func TestStandardEncoderFailsPrivacyCheck(t *testing.T) {
	rec := newRecording(genConfig{Seed: 1, Sensors: 8, Frames: 128, Encoder: "standard"})
	if _, err := rec.record(false); err != nil {
		t.Fatal(err)
	}
	oracle, err := rec.oracle()
	if err != nil {
		t.Fatal(err)
	}
	p, err := streamReplay(rec, oracle, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.privacy.NMI <= 0 || p.privacy.DistinctSizes != 2 {
		t.Fatalf("standard encoder: NMI %g over %d sizes, want NMI > 0 over 2", p.privacy.NMI, p.privacy.DistinctSizes)
	}
	for _, c := range p.checks {
		if c.Name == "privacy.one_size_zero_nmi" {
			if c.Err == nil {
				t.Error("privacy check passed on leaking frames")
			}
		} else if c.Err != nil {
			t.Errorf("%s: %v", c.Name, c.Err)
		}
	}
}

func TestGatewayResumesEverySensorOnce(t *testing.T) {
	o := small(3, "gateway")
	o.sensors, o.frames, o.trace = 40, 4, true
	out, err := runGateway(o)
	if err != nil {
		t.Fatal(err)
	}
	if bad := failedChecks(out); len(bad) > 0 {
		t.Fatal(bad)
	}
	if got := out.json["ingest.resumes_per_sensor"]; got != 1 {
		t.Errorf("resumes per sensor %g, want 1", got)
	}
	if got := out.json["cluster.routed"]; got < 80 {
		t.Errorf("cluster routed %g connections, want at least 80", got)
	}
}

func TestChecksCanFail(t *testing.T) {
	rec := newRecording(genConfig{Seed: 1, Sensors: 2, Frames: 4, Encoder: "age"})
	if _, err := rec.record(false); err != nil {
		t.Fatal(err)
	}
	v := newVerifier(rec)
	for s := 0; s < 2; s++ {
		for i := 0; i < 4; i++ {
			v.record(s, i, rec.frame(s, i))
		}
	}
	if err := v.err(); err != nil {
		t.Fatalf("complete delivery: %v", err)
	}
	v.record(0, 1, rec.frame(0, 1))
	if v.err() == nil {
		t.Error("duplicate frame passed")
	}
	v = newVerifier(rec)
	bad := append([]byte(nil), rec.frame(1, 2)...)
	bad[len(bad)-1] ^= 0xff
	v.record(1, 2, bad)
	if v.mismatched.Load() != 1 || v.err() == nil {
		t.Error("corrupted frame passed")
	}
	if newVerifier(rec).err() == nil {
		t.Error("missing frames passed")
	}

	cases := []struct {
		name string
		err  error
	}{
		{"staged", stagedErr(projection.Snapshot{StagedRecords: 9, CoveragePct: 100}, 10)},
		{"decode errors", stagedErr(projection.Snapshot{StagedRecords: 10, CoveragePct: 100, DecodeErrors: 1}, 10)},
		{"folded", foldedErr(10, projection.Checkpoint{Workers: map[string]projection.WorkerCheckpoint{
			"mae": {Cursors: map[int]int{1: 10}}, "events": {Cursors: map[int]int{1: 9}}, "privacy": {Cursors: map[int]int{1: 10}},
		}})},
		{"privacy sizes", privacyErr(projection.PrivacySnapshot{Records: 10, DistinctSizes: 2})},
		{"privacy nmi", privacyErr(projection.PrivacySnapshot{Records: 10, DistinctSizes: 1, NMI: 1e-6})},
		{"mae", maeErr(projection.MAESnapshot{Count: 5, MeanMAE: 1 + 1e-6, WeightedMAE: 1}, maeOracle{Count: 5, MeanMAE: 1, WeightedMAE: 1})},
		{"delivered", deliveredErr(3, 4)},
		{"digest", digestErr([]string{"aa", "bb"}, "aa")},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s check passed on bad input", c.name)
		}
	}
	if err := maeErr(projection.MAESnapshot{Count: 5, MeanMAE: 1 + 1e-12, WeightedMAE: 1}, maeOracle{Count: 5, MeanMAE: 1, WeightedMAE: 1}); err != nil {
		t.Errorf("mae within 1e-9 failed: %v", err)
	}
	if err := privacyErr(projection.PrivacySnapshot{Records: 10, DistinctSizes: 1}); err != nil {
		t.Errorf("one size, zero NMI failed: %v", err)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0}, {0, 0}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond)", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
}

func TestFailedPctOverAttempted(t *testing.T) {
	if got := failedPct(1, 200); got != 0.5 {
		t.Errorf("failedPct(1, 200) = %g", got)
	}
	if got := failedPct(0, 200); got != 0 {
		t.Errorf("failedPct(0, 200) = %g", got)
	}
	if got := failedPct(0, 0); got != 100 {
		t.Errorf("nothing attempted reads %g%%, want 100", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	counts := []uint64{0, 10, 0}
	bounds := []float64{0, 1, 2, 3}
	if got := histQuantile(counts, bounds, 0.5); got != 1.5 {
		t.Errorf("median = %g, want 1.5", got)
	}
	if got := histQuantile([]uint64{0, 0, 0}, bounds, 0.5); got != 0 {
		t.Errorf("empty histogram = %g", got)
	}
}

func TestSpanSelfTimeNestsAndIsNeverNegative(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "session", Start: 0, End: 100},
		// Overlapping children and one running past its parent.
		{ID: 1, Parent: 0, Name: "frame", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "frame", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "frame", Start: 90, End: 150},
		{ID: 4, Parent: 1, Name: "open", Start: 12, End: 18},
		// A child covering its whole parent leaves zero self time.
		{ID: 5, Parent: 4, Name: "decode", Start: 0, End: 200},
	}
	got := map[string]layerStat{}
	for _, ls := range layerStats(spans) {
		got[ls.Name] = ls
		if ls.Self < 0 || ls.Self > ls.Total {
			t.Errorf("%s: self %v outside [0, total %v]", ls.Name, ls.Self, ls.Total)
		}
	}
	// session: 100 minus the union [10,50] ∪ [90,100] = 50.
	if s := got["session"]; s.Count != 1 || s.Total != 100 || s.Self != 50 {
		t.Errorf("session = %+v, want total 100 self 50", s)
	}
	// frames: 20-6 + 30 + 60 = 104 self over 110 total.
	if f := got["frame"]; f.Count != 3 || f.Total != 110 || f.Self != 104 {
		t.Errorf("frame = %+v, want total 110 self 104", f)
	}
	if o := got["open"]; o.Self != 0 {
		t.Errorf("open self = %v, want 0", o.Self)
	}
}

func TestTracerRecordsParentAndSession(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	root := tr.begin("ingest.session", -1, 7, t0)
	child := tr.add("projection.stage", root, 7, t0.Add(time.Microsecond), t0.Add(2*time.Microsecond))
	tr.end(root, t0.Add(3*time.Microsecond))
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child].Parent != root || spans[child].Session != 7 || spans[root].End-spans[root].Start != 3000 {
		t.Fatalf("spans = %+v", spans)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0, t0); id != -1 {
		t.Errorf("untraced begin = %d", id)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || strings.Count(string(data), "\n") != 2 {
		t.Fatalf("written spans: %q, %v", data, err)
	}
}

func TestDeclarationsAgreeAndCatchStrayMetrics(t *testing.T) {
	decl, err := loadDeclarations("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	opts := options{workload: "sweep"}
	full := func() *outcome {
		out := &outcome{json: map[string]float64{}}
		for _, d := range decl.expected("sweep", false) {
			out.add(d.Name, d.Unit, 1, 1)
		}
		for _, b := range decl.bench.EndToEnd {
			out.json[b.Name] = 1
		}
		return out
	}
	verdict := func(out *outcome) map[string]error {
		m := map[string]error{}
		for _, c := range decl.verify(opts, out) {
			m[c.Name] = c.Err
		}
		return m
	}
	if v := verdict(full()); v["metrics.declared"] != nil {
		t.Fatalf("complete output rejected: %v", v["metrics.declared"])
	}
	extra := full()
	extra.add("frames_per_s", "frames/s", 1, 1) // declared, but not for sweep
	if verdict(extra)["metrics.declared"] == nil {
		t.Error("undeclared metric passed")
	}
	missing := full()
	missing.metrics = missing.metrics[1:]
	if verdict(missing)["metrics.declared"] == nil {
		t.Error("omitted metric passed")
	}
	noJSON := full()
	delete(noJSON.json, "setup_s")
	if verdict(noJSON)["metrics.declared"] == nil {
		t.Error("omitted result metric passed")
	}

	// A per-layer figure of a bypassed layer must read zero.
	traced := &outcome{json: map[string]float64{}}
	for _, d := range decl.man.PerLayer {
		v := 0.0
		if d.Name == "seccomm.open_ns" {
			v = 500
		}
		traced.add(d.Name, d.Unit, v, 1)
		traced.json[d.Name] = v
	}
	var bypass error
	for _, c := range decl.verify(options{workload: "gateway", trace: true}, traced) {
		if c.Name == "layers.bypassed_read_zero" {
			bypass = c.Err
		}
	}
	if bypass == nil {
		t.Error("open samples on gateway passed the bypass check")
	}

	// BENCHMARK.json and metrics.json must agree on units.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bad, []byte(strings.Replace(string(raw), `"ns/op"`, `"ms"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDeclarations(bad); err == nil {
		t.Error("unit disagreement passed")
	}
}

func TestMustBeZeroMetricFailsRun(t *testing.T) {
	decl, err := loadDeclarations("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{json: map[string]float64{}}
	for _, d := range decl.expected("gateway", false) {
		v := 1.0
		if d.Name == "failed_pct" {
			v = 0.01
		}
		out.add(d.Name, d.Unit, v, 1)
	}
	for _, c := range decl.verify(options{workload: "gateway"}, out) {
		if c.Name == "metrics.must_be_zero" && c.Err == nil {
			t.Error("non-zero failed_pct passed")
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-workload", "nope", "-benchmark", "../BENCHMARK.json"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := run([]string{"-workload", "stream", "-benchmark", "missing.json"}, &stdout, &stderr); code == 0 {
		t.Error("missing declaration exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result on error: %q", stdout.String())
	}
}
