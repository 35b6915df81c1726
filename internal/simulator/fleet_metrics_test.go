package simulator

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/seccomm"
)

// The fleet reports its transport through ingest's own families: the
// server counts into ingest.*, every sensor's client into ingest.client.*.
func TestFleetMetricsHealthyRun(t *testing.T) {
	cfg := fleetConfig(t, EncAGE, 4)
	reg := metrics.NewRegistry()
	cfg.Base.Metrics = reg
	res, err := RunFleetContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	want := int64(res.Messages)
	if got := snap.Counters["ingest.frames"]; got != want {
		t.Errorf("ingest.frames = %d, want %d", got, want)
	}
	if got := snap.Counters["ingest.client.frames_sent"]; got != want {
		t.Errorf("ingest.client.frames_sent = %d, want %d", got, want)
	}
	if snap.Counters["ingest.client.wire_bytes_sent"] == 0 || snap.Counters["ingest.wire_bytes"] == 0 {
		t.Error("wire byte counters empty")
	}
	if got := snap.Counters["ingest.client.dial_attempts"]; got < int64(cfg.Sensors) {
		t.Errorf("ingest.client.dial_attempts = %d, want >= %d", got, cfg.Sensors)
	}
	if got := snap.Counters["ingest.sessions_completed"]; got != int64(cfg.Sensors) {
		t.Errorf("ingest.sessions_completed = %d, want %d", got, cfg.Sensors)
	}
	// Per-sensor figures live in the typed statuses.
	for _, st := range res.Sensors {
		if !st.OK() || st.DialAttempts < 1 {
			t.Errorf("sensor %d status %+v on a healthy run", st.Sensor, st)
		}
	}
	// The codec publishes nothing: under AGE its per-batch figures would
	// reveal how many measurements each batch kept.
	for name := range snap.Counters {
		if strings.HasPrefix(name, "core.") {
			t.Errorf("counter %s published", name)
		}
	}
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "core.") {
			t.Errorf("histogram %s published", name)
		}
	}
	// A healthy loopback fleet has a quiet fault ledger. The fleet's
	// handler refusing an unknown sensor ID counts as rejected_refused.
	for _, name := range []string{
		"ingest.client.dial_failures", "ingest.read_deadline_hits",
		"ingest.client.write_deadline_hits", "ingest.client.reconnects",
		"ingest.unattributed", "ingest.rejected_refused", "ingest.rejected_duplicate",
	} {
		if got, ok := snap.Counters[name]; !ok || got != 0 {
			t.Errorf("%s = %d (registered %v) on a healthy run", name, got, ok)
		}
	}
	// AGE fixes the wire size, so the frame-size histogram holds one size.
	fb := snap.Histograms["ingest.frame_bytes"]
	if fb.Count != want || fb.Max == 0 || fb.Sum != fb.Max*want {
		t.Errorf("ingest.frame_bytes = %+v, want %d equal-size frames", fb, want)
	}
}

// AGE's fixed message size must reach the registry too: two fleets that
// differ only in their data (and so in how many measurements the adaptive
// policy keeps per batch) publish the same counters, the same histogram
// counts, and the same sums for every histogram that is not a timing.
// Standard is the negative control: its sizes follow k, so wire bytes differ.
func TestFleetMetricsIndependentOfData(t *testing.T) {
	_, p := fixture(t, 0.5)
	snapshot := func(enc EncoderKind, seed int64) metrics.Snapshot {
		t.Helper()
		reg := metrics.NewRegistry()
		cfg := FleetConfig{
			Base: RunConfig{
				Dataset: dataset.MustLoad("epilepsy", dataset.Options{Seed: seed, MaxSequences: 24}),
				Policy:  p, Encoder: enc, Cipher: seccomm.ChaCha20Stream, Rate: 0.5,
				Model: energy.Default(), Seed: 1, Metrics: reg,
			},
			Sensors: 4,
		}
		if _, err := RunFleetContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}

	a, b := snapshot(EncAGE, 3), snapshot(EncAGE, 4)
	if len(a.Counters) != len(b.Counters) {
		t.Errorf("AGE counters: %d on seed 3, %d on seed 4", len(a.Counters), len(b.Counters))
	}
	for name, v := range a.Counters {
		if w, ok := b.Counters[name]; !ok || w != v {
			t.Errorf("AGE counter %s: %d on seed 3, %d on seed 4 (registered %v)", name, v, w, ok)
		}
	}
	if len(a.Histograms) != len(b.Histograms) {
		t.Errorf("AGE histograms: %d on seed 3, %d on seed 4", len(a.Histograms), len(b.Histograms))
	}
	for name, ha := range a.Histograms {
		hb, ok := b.Histograms[name]
		switch {
		case !ok:
			t.Errorf("AGE histogram %s only on seed 3", name)
		case ha.Count != hb.Count:
			t.Errorf("AGE histogram %s count: %d on seed 3, %d on seed 4", name, ha.Count, hb.Count)
		case !strings.HasSuffix(name, "_ns") && ha.Sum != hb.Sum:
			t.Errorf("AGE histogram %s sum: %d on seed 3, %d on seed 4", name, ha.Sum, hb.Sum)
		}
	}

	sa, sb := snapshot(EncStandard, 3), snapshot(EncStandard, 4)
	if sa.Counters["ingest.wire_bytes"] == sb.Counters["ingest.wire_bytes"] {
		t.Errorf("Standard ingest.wire_bytes equal (%d) across seeds; the control shows nothing",
			sa.Counters["ingest.wire_bytes"])
	}
}

// The fault-schedule accounting test: inject a known fault plan and assert
// the counters and statuses report exactly that plan. Runs under -race
// with the rest of the package.
func TestFleetMetricsMatchFaultSchedule(t *testing.T) {
	const stalled, ghost = 0, 1
	cfg := fastFaultConfig(t, 4, &FleetFaults{
		StallAfterFrames: map[int]int{stalled: 1},
		NeverDial:        map[int]bool{ghost: true},
	})
	reg := metrics.NewRegistry()
	cfg.Base.Metrics = reg
	res, err := runBounded(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	// The stalled sensor trips the server's read deadline exactly once,
	// and it is the only sensor the server reports a failure for.
	if got := snap.Counters["ingest.read_deadline_hits"]; got != 1 {
		t.Errorf("ingest.read_deadline_hits = %d, want 1", got)
	}
	for _, st := range res.Sensors {
		if hasErr := st.ServerErr != ""; hasErr != (st.Sensor == stalled) {
			t.Errorf("sensor %d ServerErr = %q", st.Sensor, st.ServerErr)
		}
	}
	// The ghost never dialed: no dial attempts, no frames.
	if st := res.Sensors[ghost]; st.DialAttempts != 0 || st.Delivered != 0 {
		t.Errorf("ghost status %+v, want no dials and no deliveries", st)
	}
	// Nothing in this schedule causes write retries or reconnects.
	if got := snap.Counters["ingest.client.write_retries"]; got != 0 {
		t.Errorf("ingest.client.write_retries = %d, want 0", got)
	}
	if got := snap.Counters["ingest.client.reconnects"]; got != 0 {
		t.Errorf("ingest.client.reconnects = %d, want 0", got)
	}
	// Global totals still reconcile with the statuses.
	var delivered int64
	for _, st := range res.Sensors {
		delivered += int64(st.Delivered)
	}
	if got := snap.Counters["ingest.frames"]; got != delivered {
		t.Errorf("ingest.frames = %d, statuses say %d", got, delivered)
	}
}

// The redial regression test the seccomm satellite asks for: a flaky server
// link forces the sensor through several reconnects; the run must recover
// completely AND every nonce the server observes must be distinct — the
// sensor carries one sealer (monotonic counter) across redials, and the
// instance prefix protects even a re-created sealer.
func TestFleetReconnectResumesWithDistinctNonces(t *testing.T) {
	const victim = 0
	d := dataset.MustLoad("activity", dataset.Options{Seed: 9, MaxSequences: 12})
	cfg := FleetConfig{
		Base: RunConfig{
			Dataset: d, Policy: policy.NewUniform(0.5), Encoder: EncAGE,
			Cipher: seccomm.ChaCha20Stream, Rate: 0.5,
			Model: energy.Default(), Seed: 1,
		},
		Sensors:           3,
		IOTimeout:         500 * time.Millisecond,
		DialTimeout:       500 * time.Millisecond,
		DialAttempts:      2,
		DialBackoff:       10 * time.Millisecond,
		ReconnectAttempts: 10,
		Faults:            &FleetFaults{ServerCloseAfterFrames: map[int]int{victim: 1}},
	}

	var hookMu sync.Mutex
	nonces := map[string]int{} // nonce -> sensor that first used it
	dup := ""
	fleetFrameHook = func(sensorID int, msg []byte) {
		hookMu.Lock()
		defer hookMu.Unlock()
		nonce := string(msg[:12])
		if _, seen := nonces[nonce]; seen && dup == "" {
			dup = nonce
		}
		nonces[nonce] = sensorID
	}
	defer func() { fleetFrameHook = nil }()

	res, err := runBounded(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sensors[victim]
	if !st.OK() {
		t.Errorf("victim did not recover: %+v", st)
	}
	if st.Reconnects < 1 {
		t.Errorf("victim reports %d reconnects, want >= 1 (fault closes its link every frame)", st.Reconnects)
	}
	if res.Messages != 12 {
		t.Errorf("Messages = %d, want all 12 delivered", res.Messages)
	}
	if res.Failed != 0 {
		t.Errorf("Failed = %d after recovery", res.Failed)
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	if dup != "" {
		t.Errorf("nonce %x observed twice across redials", dup)
	}
	if len(nonces) < 12 {
		t.Errorf("observed %d distinct nonces, want >= 12", len(nonces))
	}
}

// Resume is invisible in the delivered data: a fleet that reconnects mid-
// stream must produce the same attacker view and per-sensor MAE as an
// undisturbed run, because the resumed sensor replays its sampling stream.
func TestFleetReconnectMatchesUndisturbedRun(t *testing.T) {
	build := func(faults *FleetFaults) FleetConfig {
		d := dataset.MustLoad("epilepsy", dataset.Options{Seed: 4, MaxSequences: 9})
		return FleetConfig{
			Base: RunConfig{
				Dataset: d, Policy: policy.NewUniform(0.6), Encoder: EncAGE,
				Cipher: seccomm.ChaCha20Stream, Rate: 0.6,
				Model: energy.Default(), Seed: 7,
			},
			Sensors:           3,
			IOTimeout:         500 * time.Millisecond,
			DialBackoff:       10 * time.Millisecond,
			ReconnectAttempts: 10,
			Faults:            faults,
		}
	}
	clean, err := runBounded(t, context.Background(), build(nil))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := runBounded(t, context.Background(), build(&FleetFaults{ServerCloseAfterFrames: map[int]int{1: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Failed != 0 {
		t.Fatalf("faulty run did not recover: %+v", faulty.Sensors)
	}
	if faulty.Sensors[1].Reconnects < 1 {
		t.Error("fault plan produced no reconnects; test is vacuous")
	}
	if clean.Messages != faulty.Messages {
		t.Errorf("messages: clean %d, faulty %d", clean.Messages, faulty.Messages)
	}
	for s := range clean.PerSensorMAE {
		if clean.PerSensorMAE[s] != faulty.PerSensorMAE[s] {
			t.Errorf("sensor %d MAE differs: clean %g, resumed %g", s, clean.PerSensorMAE[s], faulty.PerSensorMAE[s])
		}
	}
}
