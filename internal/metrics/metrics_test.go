package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("frames") != c {
		t.Error("repeated Counter lookup returned a different instrument")
	}
	g := r.Gauge("busy")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(7)
	r.GaugeFunc("f", func() int64 { return 1 })
	if c.Value() != 0 {
		t.Error("nil counter stored a value")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	hs := h.snapshot()
	if hs.Count != 5 || hs.Sum != 5122 || hs.Max != 5000 {
		t.Errorf("count/sum/max = %d/%d/%d", hs.Count, hs.Sum, hs.Max)
	}
	want := map[int64]int64{10: 2, 100: 2, math.MaxInt64: 1}
	for _, b := range hs.Buckets {
		if want[b.LE] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.LE, b.Count, want[b.LE])
		}
		delete(want, b.LE)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
	if math.Abs(hs.Mean-5122.0/5) > 1e-9 {
		t.Errorf("mean = %g", hs.Mean)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds accepted")
		}
	}()
	NewHistogram(10, 10)
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := int64(41)
	r.GaugeFunc("depth", func() int64 { return v })
	v = 42
	if got := r.Snapshot().Gauges["depth"]; got != 42 {
		t.Errorf("gauge func = %d, want 42", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b").Set(-2)
	r.Histogram("lat", LatencyBuckets()...).Observe(1500)

	var buf jsonBuffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.b, &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if back.Counters["a"] != 7 || back.Gauges["b"] != -2 {
		t.Errorf("round trip lost values: %+v", back)
	}
	if back.Histograms["lat"].Count != 1 {
		t.Errorf("histogram lost: %+v", back.Histograms)
	}
	if back.TakenUnixNano == 0 {
		t.Error("snapshot missing timestamp")
	}
}

type jsonBuffer struct{ b []byte }

func (j *jsonBuffer) Write(p []byte) (int, error) { j.b = append(j.b, p...); return len(p), nil }

func TestHandlerServesJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("fleet.frames_delivered").Add(12)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics body does not parse: %v\n%s", err, body)
	}
	if snap.Counters["fleet.frames_delivered"] != 12 {
		t.Errorf("served snapshot = %+v", snap)
	}
}

func TestListenAndServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("hello").Inc()
	srv, err := r.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	if snap.Counters["hello"] != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	resp, err = http.Get("http://" + srv.Addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status %d", resp.StatusCode)
	}
}

func TestConcurrentUpdatesRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", 100, 1000)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	for i := 0; i < 20; i++ {
		_ = r.Snapshot()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := r.Snapshot().Histograms["lat"].Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// The hot-path contract: once instruments are resolved, updates never
// allocate, so an instrumented hot path stays allocation-free.
func TestUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBuckets()...)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		h.Observe(123_456)
	}); got != 0 {
		t.Errorf("hot-path update allocates %.1f/op, want 0", got)
	}
}

func TestSummaryIsSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	if got := r.Snapshot().Summary(); got != "a=1 b=2" {
		t.Errorf("summary = %q", got)
	}
}

func TestSizeBucketsCoverFrameRange(t *testing.T) {
	b := SizeBuckets()
	if b[0] != 16 || b[len(b)-1] != 1<<16 {
		t.Errorf("size buckets = %v", b)
	}
}

// TestHistogramBoundsConflict covers both registration paths: agreeing
// callers share the instrument silently, and a caller passing different
// bounds still gets the existing instrument (so updates keep landing in one
// family) but the disagreement is recorded and surfaces in snapshots.
func TestHistogramBoundsConflict(t *testing.T) {
	const prefix = "metrics.histogram_bounds_conflict."
	conflicts := func(r *Registry) map[string]int64 {
		out := map[string]int64{}
		for name, n := range r.Snapshot().Counters {
			if family, ok := strings.CutPrefix(name, prefix); ok {
				out[family] = n
			}
		}
		return out
	}
	r := NewRegistry()
	a := r.Histogram("lat", 10, 20, 30)
	b := r.Histogram("lat", 10, 20, 30)
	if a != b {
		t.Fatal("same bounds must return the same histogram")
	}
	if n := len(conflicts(r)); n != 0 {
		t.Fatalf("agreeing registrations recorded %d conflicts", n)
	}

	c := r.Histogram("lat", 10, 20) // mismatched layout
	if c != a {
		t.Fatal("mismatched bounds must still return the registered histogram")
	}
	r.Histogram("lat", 10, 25, 30) // mismatched values, same length
	if got := conflicts(r)["lat"]; got != 2 {
		t.Fatalf("conflicts[lat] = %d, want 2", got)
	}
	snap := r.Snapshot()
	if got := snap.Counters[prefix+"lat"]; got != 2 {
		t.Fatalf("snapshot conflict counter = %d, want 2", got)
	}

	// Another family stays clean.
	r.Histogram("other")
	r.Histogram("other")
	if _, ok := conflicts(r)["other"]; ok {
		t.Fatal("boundless family recorded a conflict")
	}
	// Nil registry degrades like every other lookup.
	var nilReg *Registry
	if nilReg.Histogram("x", 1) != nil || len(conflicts(nilReg)) != 0 {
		t.Fatal("nil registry must no-op")
	}
}
