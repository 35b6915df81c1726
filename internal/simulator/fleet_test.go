package simulator

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/reconstruct"
	"repro/internal/seccomm"
	"repro/internal/stats"
)

func fleetConfig(t *testing.T, enc EncoderKind, sensors int) FleetConfig {
	t.Helper()
	d, p := fixture(t, 0.7)
	return FleetConfig{
		Base: RunConfig{
			Dataset: d, Policy: p, Encoder: enc,
			Cipher: seccomm.ChaCha20Stream, Rate: 0.7,
			Model: energy.Default(), Seed: 1,
		},
		Sensors: sensors,
	}
}

func TestFleetDeliversEverything(t *testing.T) {
	cfg := fleetConfig(t, EncAGE, 4)
	res, err := RunFleetContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != len(cfg.Base.Dataset.Sequences) {
		t.Errorf("server saw %d messages, want %d", res.Messages, len(cfg.Base.Dataset.Sequences))
	}
	for s, mae := range res.PerSensorMAE {
		if mae <= 0 {
			t.Errorf("sensor %d MAE = %g", s, mae)
		}
	}
	if res.Failed != 0 {
		t.Errorf("healthy fleet reports %d failed sensors", res.Failed)
	}
	for _, st := range res.Sensors {
		if !st.OK() {
			t.Errorf("sensor %d not OK: %s", st.Sensor, st.Err())
		}
		if st.DialAttempts < 1 {
			t.Errorf("sensor %d reports %d dial attempts", st.Sensor, st.DialAttempts)
		}
	}
}

// fastFaultConfig tightens the transport knobs so failure paths resolve in
// well under the 5-second budget the acceptance criteria demand.
func fastFaultConfig(t *testing.T, sensors int, faults *FleetFaults) FleetConfig {
	t.Helper()
	cfg := fleetConfig(t, EncAGE, sensors)
	cfg.IOTimeout = 300 * time.Millisecond
	cfg.DialTimeout = 300 * time.Millisecond
	cfg.DialAttempts = 2
	cfg.DialBackoff = 10 * time.Millisecond
	cfg.Faults = faults
	return cfg
}

// runBounded fails the test if RunFleetContext does not return within the
// acceptance deadline: a fleet run must never hang.
func runBounded(t *testing.T, ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	t.Helper()
	type out struct {
		res *FleetResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := RunFleetContext(ctx, cfg)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(5 * time.Second):
		t.Fatal("RunFleetContext hung past the 5s acceptance deadline")
		return nil, nil
	}
}

func TestFleetSensorDiesMidStream(t *testing.T) {
	const victim = 1
	cfg := fastFaultConfig(t, 4, &FleetFaults{DieAfterFrames: map[int]int{victim: 1}})
	res, err := runBounded(t, context.Background(), cfg)
	if err != nil {
		t.Fatalf("one dead sensor must degrade, not abort: %v", err)
	}
	if res.Failed != 1 {
		t.Fatalf("Failed = %d, want 1 (statuses: %+v)", res.Failed, res.Sensors)
	}
	st := res.Sensors[victim]
	if st.OK() || !strings.Contains(st.SensorErr, "died after 1 frames") {
		t.Errorf("victim status = %+v", st)
	}
	if st.Delivered != 1 {
		t.Errorf("victim delivered %d frames, want the 1 sent before dying", st.Delivered)
	}
	for _, other := range res.Sensors {
		if other.Sensor == victim {
			continue
		}
		if !other.OK() {
			t.Errorf("healthy sensor %d degraded: %s", other.Sensor, other.Err())
		}
	}
	// The pooled attacker view contains everything that was delivered.
	want := 0
	for _, st := range res.Sensors {
		want += st.Delivered
	}
	if res.Messages != want {
		t.Errorf("Messages = %d, want %d", res.Messages, want)
	}
}

func TestFleetSensorNeverDials(t *testing.T) {
	const ghost = 2
	cfg := fastFaultConfig(t, 4, &FleetFaults{NeverDial: map[int]bool{ghost: true}})
	res, err := runBounded(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sensors[ghost]
	if st.SensorErr == "" || st.Delivered != 0 || st.DialAttempts != 0 {
		t.Errorf("ghost status = %+v", st)
	}
	if res.Failed != 1 {
		t.Errorf("Failed = %d, want 1", res.Failed)
	}
	if res.PerSensorMAE[ghost] != 0 {
		t.Errorf("ghost MAE = %g, want 0", res.PerSensorMAE[ghost])
	}
}

func TestFleetSensorStallsReadDeadlineFires(t *testing.T) {
	const quiet = 0
	cfg := fastFaultConfig(t, 3, &FleetFaults{StallAfterFrames: map[int]int{quiet: 1}})
	res, err := runBounded(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sensors[quiet]
	if st.OK() {
		t.Fatalf("stalled sensor reported OK: %+v", st)
	}
	// The server must have been unblocked by its read deadline, not EOF.
	if !strings.Contains(st.ServerErr, "timeout") && !strings.Contains(st.ServerErr, "deadline") {
		t.Errorf("server error %q does not look like a deadline expiry", st.ServerErr)
	}
}

func TestFleetServerClosesEarly(t *testing.T) {
	const dropped = 0
	cfg := fastFaultConfig(t, 3, &FleetFaults{ServerCloseAfterFrames: map[int]int{dropped: 1}})
	res, err := runBounded(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sensors[dropped]
	if st.OK() || !strings.Contains(st.ServerErr, "server closed link") {
		t.Errorf("dropped status = %+v", st)
	}
	if res.Failed != 1 {
		t.Errorf("Failed = %d, want 1", res.Failed)
	}
}

func TestFleetAllSensorsFailReturnsError(t *testing.T) {
	cfg := fastFaultConfig(t, 3, &FleetFaults{
		NeverDial: map[int]bool{0: true, 1: true, 2: true},
	})
	res, err := runBounded(t, context.Background(), cfg)
	if err == nil {
		t.Fatal("a fleet in which every sensor failed must surface an error")
	}
	if !strings.Contains(err.Error(), "all 3 sensors failed") {
		t.Errorf("error %q not descriptive", err)
	}
	if res == nil || res.Failed != 3 {
		t.Errorf("partial result missing or wrong: %+v", res)
	}
}

func TestFleetContextCancellation(t *testing.T) {
	cfg := fastFaultConfig(t, 3, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts
	start := time.Now()
	_, err := RunFleetContext(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled context must produce an error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
}

func TestFleetRunTimeout(t *testing.T) {
	cfg := fastFaultConfig(t, 3, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := runBounded(t, ctx, cfg)
	if err == nil {
		t.Fatal("an expired run deadline must produce an error")
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("timeout error %q not descriptive", err)
	}
}

// TestFleetDeadlineExpiresMidRun: the caller's deadline is the only bound
// on a fleet run. A stalled sensor keeps the run from finishing first, so
// the deadline ends it mid-stream: the partial result comes back with what
// was delivered, and the error wraps context.DeadlineExceeded.
func TestFleetDeadlineExpiresMidRun(t *testing.T) {
	cfg := fastFaultConfig(t, 3, &FleetFaults{StallAfterFrames: map[int]int{0: 1}})
	// The stall lasts past two IO timeouts; the deadline falls well inside
	// it, and before the server's read deadline could fail the sensor.
	cfg.IOTimeout = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := runBounded(t, ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("no partial result returned with the deadline error")
	}
	delivered := 0
	for _, st := range res.Sensors {
		delivered += st.Delivered
	}
	if delivered == 0 || res.Messages != delivered {
		t.Errorf("partial result delivered %d frames (Messages %d), want a nonzero matching count", delivered, res.Messages)
	}
	if st := res.Sensors[0]; st.Delivered != 1 {
		t.Errorf("stalled sensor delivered %d frames, want the 1 sent before stalling", st.Delivered)
	}
}

func TestFleet200SensorsRace(t *testing.T) {
	// The acceptance-scale smoke test: 200 concurrent sensors, one server,
	// default transport knobs, clean under -race.
	d := dataset.MustLoad("activity", dataset.Options{Seed: 9, MaxSequences: 200})
	cfg := FleetConfig{
		Base: RunConfig{
			Dataset: d, Policy: policy.NewUniform(0.5), Encoder: EncAGE,
			Cipher: seccomm.ChaCha20Stream, Rate: 0.5,
			Model: energy.Default(), Seed: 1,
		},
		Sensors: 200,
	}
	res, err := runBounded(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		for _, st := range res.Sensors {
			if !st.OK() {
				t.Errorf("sensor %d: %s", st.Sensor, st.Err())
			}
		}
		t.Fatalf("%d of 200 sensors failed", res.Failed)
	}
	if res.Messages != 200 {
		t.Errorf("Messages = %d, want 200", res.Messages)
	}
}

func TestFleetAGEZeroNMIAcrossSensors(t *testing.T) {
	// The attacker pools observations across the whole fleet; AGE's
	// protection must survive aggregation.
	res, err := RunFleetContext(context.Background(), fleetConfig(t, EncAGE, 3))
	if err != nil {
		t.Fatal(err)
	}
	var labels, sizes []int
	for l, ss := range res.SizesByLabel {
		for _, s := range ss {
			labels = append(labels, l)
			sizes = append(sizes, s)
		}
	}
	if nmi := stats.NMI(labels, sizes); nmi != 0 {
		t.Errorf("fleet-wide AGE NMI = %g, want 0", nmi)
	}
}

func TestFleetStandardLeaksAcrossSensors(t *testing.T) {
	res, err := RunFleetContext(context.Background(), fleetConfig(t, EncStandard, 3))
	if err != nil {
		t.Fatal(err)
	}
	var labels, sizes []int
	for l, ss := range res.SizesByLabel {
		for _, s := range ss {
			labels = append(labels, l)
			sizes = append(sizes, s)
		}
	}
	if nmi := stats.NMI(labels, sizes); nmi <= 0 {
		t.Error("fleet-wide standard encoding shows no leakage")
	}
}

func TestFleetKeysAreDistinct(t *testing.T) {
	a := fleetKey(0, seccomm.ChaCha20Stream)
	b := fleetKey(1, seccomm.ChaCha20Stream)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("sensors share a key")
	}
	if len(fleetKey(0, seccomm.AES128Block)) != 16 {
		t.Error("AES fleet key not 16 bytes")
	}
}

func TestFleetErrors(t *testing.T) {
	cfg := fleetConfig(t, EncAGE, 0)
	if _, err := RunFleetContext(context.Background(), cfg); err == nil {
		t.Error("zero sensors accepted")
	}
	cfg = fleetConfig(t, EncAGE, 10000)
	if _, err := RunFleetContext(context.Background(), cfg); err == nil {
		t.Error("fleet larger than dataset accepted")
	}
}

func TestFleetSingleSensorMatchesSocketPath(t *testing.T) {
	// A fleet of one is the plain socket pipeline.
	d := dataset.MustLoad("epilepsy", dataset.Options{Seed: 3, MaxSequences: 12})
	var train [][][]float64
	for _, s := range d.Sequences {
		train = append(train, s.Values)
	}
	fit, err := policy.Fit(policy.KindLinear, train, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FleetConfig{
		Base: RunConfig{
			Dataset: d, Policy: policy.NewLinear(fit.Threshold), Encoder: EncAGE,
			Cipher: seccomm.ChaCha20Stream, Rate: 0.7, Model: energy.Default(), Seed: 1,
		},
		Sensors: 1,
	}
	res, err := RunFleetContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 12 {
		t.Errorf("messages = %d", res.Messages)
	}
}

// TestFleetMatchesDirectPipeline is the refactor's equivalence contract: a
// fixed-seed fleet run through the ingest server must reproduce, exactly,
// the result a sequential in-process pipeline computes — per-sensor MAE
// equal bit for bit, and the attacker's pooled size observations equal as
// multisets (cross-sensor interleaving is the only freedom concurrency
// gets).
func TestFleetMatchesDirectPipeline(t *testing.T) {
	const sensors = 4
	cfg := fleetConfig(t, EncAGE, sensors)
	res, err := runBounded(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	meta := cfg.Base.Dataset.Meta
	coreCfg := core.Config{
		T: meta.SeqLen, D: meta.NumFeatures, Format: meta.Format,
		TargetBytes: core.TargetBytesForRate(cfg.Base.Rate, meta.SeqLen, meta.NumFeatures, meta.Format.Width),
	}
	parts := make([][]int, sensors)
	for i := range cfg.Base.Dataset.Sequences {
		parts[i%sensors] = append(parts[i%sensors], i)
	}
	wantSizes := map[int][]int{}
	for s := 0; s < sensors; s++ {
		encs, err := buildEncoder(cfg.Base.Encoder, coreCfg, cfg.Base.Cipher)
		if err != nil {
			t.Fatal(err)
		}
		sealer, err := seccomm.NewSealer(cfg.Base.Cipher, fleetKey(s, cfg.Base.Cipher))
		if err != nil {
			t.Fatal(err)
		}
		opener, err := seccomm.NewSealer(cfg.Base.Cipher, fleetKey(s, cfg.Base.Cipher))
		if err != nil {
			t.Fatal(err)
		}
		rng := newSeededRand(cfg.Base.Seed + int64(s))
		var acc reconstruct.Accumulator
		for _, si := range parts[s] {
			seq := cfg.Base.Dataset.Sequences[si]
			idx := cfg.Base.Policy.Sample(seq.Values, rng)
			vals := make([][]float64, len(idx))
			for i, ti := range idx {
				vals[i] = seq.Values[ti]
			}
			payload, err := encs.enc.Encode(core.Batch{Indices: idx, Values: vals})
			if err != nil {
				t.Fatal(err)
			}
			msg, err := sealer.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			opened, err := opener.Open(msg)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := encs.dec.Decode(opened)
			if err != nil {
				t.Fatal(err)
			}
			recon, err := reconstruct.Linear(batch.Indices, batch.Values, meta.SeqLen, meta.NumFeatures)
			if err != nil {
				t.Fatal(err)
			}
			mae, err := reconstruct.MAE(recon, seq.Values)
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(mae, 1)
			wantSizes[seq.Label] = append(wantSizes[seq.Label], len(msg))
		}
		if got, want := res.PerSensorMAE[s], acc.MAE(); got != want {
			t.Errorf("sensor %d MAE = %v, direct pipeline computes %v (must be exactly equal)", s, got, want)
		}
	}
	if len(res.SizesByLabel) != len(wantSizes) {
		t.Fatalf("SizesByLabel has %d labels, want %d", len(res.SizesByLabel), len(wantSizes))
	}
	for label, want := range wantSizes {
		got := append([]int(nil), res.SizesByLabel[label]...)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("label %d: %d observations, want %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("label %d: size multiset diverges at %d: %d != %d", label, i, got[i], want[i])
			}
		}
	}
}
