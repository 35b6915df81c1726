package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixedpoint"
	"repro/internal/ingest"
)

// TestSummarizeLeavesInputUnsorted is the regression test for summarize
// reordering the caller's slice: percentile computation must not disturb
// index-aligned latency bookkeeping.
func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	durs := []time.Duration{
		9 * time.Millisecond, 1 * time.Millisecond, 5 * time.Millisecond,
		3 * time.Millisecond, 7 * time.Millisecond,
	}
	orig := append([]time.Duration(nil), durs...)
	p := summarize(durs)
	for i := range durs {
		if durs[i] != orig[i] {
			t.Fatalf("summarize reordered its input: %v, want %v", durs, orig)
		}
	}
	if p.Max != 9 {
		t.Errorf("max = %vms, want 9", p.Max)
	}
	if p.P50 != 5 {
		t.Errorf("p50 = %vms, want 5", p.P50)
	}
}

// TestGenSourceHonorsCancellation is the regression test for genSource.Next
// ignoring its context: a cancelled run must stop producing frames instead
// of spinning until the transport notices.
func TestGenSourceHonorsCancellation(t *testing.T) {
	g := &genSource{sensorID: 1, total: 10, buf: make([]byte, 32)}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := g.Next(ctx); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	if _, err := g.Next(ctx); err == nil {
		t.Fatal("Next returned a frame after cancellation")
	}
	if g.next != 1 {
		t.Errorf("cancelled Next advanced the cursor: next = %d, want 1", g.next)
	}
}

// TestEncSourceResumeContract pins the FrameSource resume contract for the
// encoding source: frame i's payload must be a pure function of (sensor, i),
// so a Seek past delivered frames reproduces the identical byte stream, and
// distinct sensors or frames must differ.
func TestEncSourceResumeContract(t *testing.T) {
	cfg := core.Config{
		T: 50, D: 6,
		Format:      fixedpoint.Format{Width: 16, NonFrac: 3},
		TargetBytes: 64,
	}
	mk := func(sensor int) *encSource {
		enc, err := core.NewAGE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return newEncSource(sensor, 12, enc, cfg)
	}
	ctx := context.Background()
	a := mk(3)
	straight := make([][]byte, 12)
	for i := range straight {
		msg, err := a.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		straight[i] = append([]byte(nil), msg...)
		if len(msg) != cfg.TargetBytes {
			t.Fatalf("frame %d is %dB, want the fixed %dB", i, len(msg), cfg.TargetBytes)
		}
	}
	b := mk(3)
	if err := b.Seek(7); err != nil {
		t.Fatal(err)
	}
	for i := 7; i < 12; i++ {
		msg, err := b.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg, straight[i]) {
			t.Fatalf("frame %d after Seek differs from the straight run", i)
		}
	}
	other := mk(4)
	msg, err := other.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(msg, straight[0]) {
		t.Error("different sensors produced identical frame 0")
	}
	if bytes.Equal(straight[0], straight[1]) {
		t.Error("consecutive frames identical; generator is not frame-dependent")
	}
	ctx2, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mk(5).Next(ctx2); err == nil {
		t.Error("encSource.Next ignored cancellation")
	}
}

// loadTestOptions is a small, fast run through the full client/server path.
func loadTestOptions() loadOptions {
	return loadOptions{
		sensors: 8, frames: 10, frameBytes: 48,
		shards: 2, workers: 8, queue: 16,
		writeBatch: 4, encode: "none",
		ioTimeout: 2 * time.Second, rejectAttempts: 16,
		reconnects: 2, runTimeout: 30 * time.Second,
	}
}

// TestRunLoadPacedEndToEnd drives the whole ageload path — real server, real
// clients, release pacer, dummy cover traffic — and checks the report's
// pacer accounting against the run geometry. With a 1.5ms generation gap
// against a 1ms release interval, generation is the bottleneck: every real
// frame still arrives (delivery identity) and the skipped slots carry
// dummies.
func TestRunLoadPacedEndToEnd(t *testing.T) {
	opts := loadTestOptions()
	opts.pace = ingest.PaceConstant
	opts.paceInterval = time.Millisecond
	opts.genGap = 1500 * time.Microsecond

	rep, err := runLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Completed != opts.sensors {
		t.Fatalf("completed %d/%d, %d failed", rep.Completed, opts.sensors, rep.Failed)
	}
	want := int64(opts.sensors * opts.frames)
	if rep.DeliveredFrames != want {
		t.Errorf("delivered %d frames, want %d", rep.DeliveredFrames, want)
	}
	p := rep.Pacer
	if p == nil {
		t.Fatal("paced run produced no pacer report")
	}
	if p.Mode != "constant" {
		t.Errorf("pacer mode %q, want constant", p.Mode)
	}
	if p.RealFrames != want {
		t.Errorf("pacer counted %d real frames, want %d", p.RealFrames, want)
	}
	if p.DummyFrames <= 0 {
		t.Error("generation slower than release sent no cover traffic")
	}
	if p.DummyBytes != p.DummyFrames*int64(opts.frameBytes+1) {
		t.Errorf("dummy bytes %d, want %d frames x %dB marked", p.DummyBytes, p.DummyFrames, opts.frameBytes+1)
	}
	if p.GoodputPct <= 0 || p.GoodputPct >= 100 {
		t.Errorf("goodput = %.1f%%, want in (0, 100)", p.GoodputPct)
	}
	if p.MeanAoIMS <= 0 || p.MaxAoIMS < p.MeanAoIMS {
		t.Errorf("AoI accounting: mean %.3fms max %.3fms", p.MeanAoIMS, p.MaxAoIMS)
	}
}

// TestRunLoadPacedEncodeMode runs the pacer over real encoded payloads: the
// in-payload marker must wrap the production encoder's frames without
// corrupting delivery.
func TestRunLoadPacedEncodeMode(t *testing.T) {
	opts := loadTestOptions()
	opts.sensors, opts.frames, opts.frameBytes = 4, 8, 64
	opts.encode = "age"
	opts.pace = ingest.PaceJitter
	opts.paceInterval = time.Millisecond
	opts.paceJitter = 0.4
	opts.genGap = 1500 * time.Microsecond

	rep, err := runLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d sensors failed", rep.Failed)
	}
	if want := int64(opts.sensors * opts.frames); rep.DeliveredFrames != want {
		t.Errorf("delivered %d frames, want %d", rep.DeliveredFrames, want)
	}
	if rep.Pacer == nil || rep.Pacer.DummyFrames <= 0 {
		t.Error("jitter pacing over encoded frames sent no cover traffic")
	}
}

// TestRunLoadUnpacedHasNoPacerReport pins the report shape the ingest bench
// gate relies on: without -pace the pacer section is absent, so the
// committed BENCH_ingest baseline stays comparable.
func TestRunLoadUnpacedHasNoPacerReport(t *testing.T) {
	opts := loadTestOptions()
	rep, err := runLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d sensors failed", rep.Failed)
	}
	if rep.Pacer != nil {
		t.Errorf("unpaced run produced a pacer report: %+v", rep.Pacer)
	}
	if want := int64(opts.sensors * opts.frames); rep.DeliveredFrames != want {
		t.Errorf("delivered %d frames, want %d", rep.DeliveredFrames, want)
	}
}

// TestRunLoadProjectedEndToEnd runs the streaming pipeline on the load
// path: every delivered frame is decoded through the production codec,
// staged, and projected, and the report's projection section reflects full
// coverage.
func TestRunLoadProjectedEndToEnd(t *testing.T) {
	opts := loadTestOptions()
	opts.sensors, opts.frames, opts.frameBytes = 4, 8, 64
	opts.encode = "standard"
	opts.project = true
	opts.projectWindow = 16

	rep, err := runLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d sensors failed", rep.Failed)
	}
	pr := rep.Projection
	if pr == nil {
		t.Fatal("projected run produced no projection report")
	}
	want := int64(opts.sensors * opts.frames)
	if pr.StagedRecords != want {
		t.Errorf("staged %d records, want %d", pr.StagedRecords, want)
	}
	if pr.DecodeErrors != 0 {
		t.Errorf("%d decode errors through the production codec", pr.DecodeErrors)
	}
	if pr.CoveragePct != 100 {
		t.Errorf("coverage = %.1f%%, want 100", pr.CoveragePct)
	}
	if pr.Watermark != opts.frames {
		t.Errorf("watermark = %d, want %d", pr.Watermark, opts.frames)
	}
	// Synthetic labels alternate, so half the frames are detections.
	if pr.LabelDetections != want/2 {
		t.Errorf("label detections = %d, want %d", pr.LabelDetections, want/2)
	}
	// The adaptive workload doubles the sample count on labeled frames, and
	// standard encoding passes that straight through to the wire: the live
	// monitor must read two sizes split evenly (1 bit of entropy) in perfect
	// correlation with the labels (NMI 1).
	if pr.DistinctSizes != 2 {
		t.Errorf("distinct sizes = %d, want 2 under standard encoding", pr.DistinctSizes)
	}
	if math.Abs(pr.SizeEntropyBits-1) > 1e-9 {
		t.Errorf("size entropy = %.6f bits, want 1", pr.SizeEntropyBits)
	}
	if math.Abs(pr.NMI-1) > 1e-9 {
		t.Errorf("NMI(size,label) = %.6f, want 1", pr.NMI)
	}
}

// TestRunLoadProjectedPaced checks the tap unwraps the pacer's in-payload
// marker before decoding: cover traffic never reaches the stage, and the
// real frames decode cleanly.
func TestRunLoadProjectedPaced(t *testing.T) {
	opts := loadTestOptions()
	opts.sensors, opts.frames, opts.frameBytes = 3, 6, 64
	opts.encode = "age"
	opts.project = true
	opts.pace = ingest.PaceConstant
	opts.paceInterval = time.Millisecond
	opts.genGap = 1500 * time.Microsecond

	rep, err := runLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d sensors failed", rep.Failed)
	}
	pr := rep.Projection
	if pr == nil {
		t.Fatal("no projection report")
	}
	want := int64(opts.sensors * opts.frames)
	if pr.StagedRecords != want || pr.DecodeErrors != 0 {
		t.Errorf("staged %d (want %d), %d decode errors", pr.StagedRecords, want, pr.DecodeErrors)
	}
	// AGE standardizes message sizes, so the live monitor must measure
	// zero size entropy (and therefore zero NMI) even with varying labels.
	if pr.DistinctSizes != 1 || pr.SizeEntropyBits != 0 || pr.NMI != 0 {
		t.Errorf("AGE leak figures: %d sizes, %.3f bits, NMI %.4f; want 1/0/0",
			pr.DistinctSizes, pr.SizeEntropyBits, pr.NMI)
	}
}

// TestRunLoadUnprojectedHasNoProjectionReport pins the report shape for the
// unprojected bench baselines.
func TestRunLoadUnprojectedHasNoProjectionReport(t *testing.T) {
	opts := loadTestOptions()
	rep, err := runLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Projection != nil {
		t.Errorf("unprojected run produced a projection report: %+v", rep.Projection)
	}
}

// TestBurstSourceDutyCycle pins the per-connection frame budget: limit
// frames flow, then the terminal pause sentinel, and the Seek a reconnect
// performs resets the budget without disturbing the resume position.
func TestBurstSourceDutyCycle(t *testing.T) {
	b := &burstSource{
		FrameSource: &genSource{sensorID: 2, total: 10, buf: make([]byte, 8)},
		limit:       3,
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := b.Next(ctx); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	_, err := b.Next(ctx)
	if !errors.Is(err, errBurstPause) {
		t.Fatalf("4th frame err = %v, want burst pause", err)
	}
	if !ingest.IsTerminal(err) {
		t.Fatal("burst pause is not terminal; it would burn the reconnect budget")
	}
	if err := b.Seek(3); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8)
	for i := range want {
		want[i] = byte(2*31 + 3*7 + i)
	}
	if !bytes.Equal(msg, want) {
		t.Fatal("frame after Seek is not frame 3; the budget reset moved the cursor")
	}
}

// TestVerifierCatchesLossAndCorruption exercises the byte-exact checker the
// cluster acceptance run relies on: clean frames pass once, re-deliveries
// count as duplicates, corrupt bytes as mismatches, and undelivered pairs as
// missing.
func TestVerifierCatchesLossAndCorruption(t *testing.T) {
	frame := func(sensor, index int, n int) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(sensor*31 + index*7 + i)
		}
		return buf
	}
	v := newVerifier(2, 70, 16) // >64 frames crosses a bitset word boundary
	for idx := 0; idx < 70; idx++ {
		v.record(0, idx, frame(0, idx, 16))
	}
	v.record(0, 69, frame(0, 69, 16)) // idempotent re-delivery
	v.record(1, 0, frame(1, 0, 16))
	bad := frame(1, 1, 16)
	bad[7] ^= 0x80
	v.record(1, 1, bad)               // corrupted payload
	v.record(1, 2, frame(1, 2, 15))   // truncated payload
	v.record(5, 0, frame(5, 0, 16))   // unknown sensor
	v.record(1, 99, frame(1, 99, 16)) // out-of-range frame
	if got := v.duplicates.Load(); got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	if got := v.mismatched.Load(); got != 4 {
		t.Errorf("mismatched = %d, want 4", got)
	}
	// Sensor 1 delivered only frame 0 cleanly: 69 of its frames are missing.
	if got := v.missing(); got != 69 {
		t.Errorf("missing = %d, want 69", got)
	}
}

// TestRunClusterKillNodeZeroLoss is the acceptance path in miniature: a
// duty-cycled fleet over 3 nodes, one node killed mid-run, and the verifier
// confirming every stream arrived byte-exact despite the lost session state.
func TestRunClusterKillNodeZeroLoss(t *testing.T) {
	opts := loadTestOptions()
	opts.sensors, opts.frames = 24, 12
	opts.nodes = 3
	opts.conns = 8
	opts.burst = 4
	opts.killNode = 1
	opts.killAtFrac = 0.3
	opts.verify = true
	opts.reconnects = 8
	opts.rejectAttempts = 64

	rep, err := runCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Completed != opts.sensors {
		t.Fatalf("completed %d/%d, %d failed", rep.Completed, opts.sensors, rep.Failed)
	}
	cr := rep.Cluster
	if cr == nil {
		t.Fatal("cluster run produced no cluster report")
	}
	if !cr.Verified {
		t.Fatal("verifier did not run")
	}
	if cr.MissingFrames != 0 || cr.MismatchedFrames != 0 {
		t.Fatalf("data loss: %d missing, %d mismatched frames", cr.MissingFrames, cr.MismatchedFrames)
	}
	if cr.KilledNode != 1 || cr.KillAtFrames == 0 {
		t.Fatalf("kill did not fire: killed node %d at %d frames", cr.KilledNode, cr.KillAtFrames)
	}
	if cr.Routed == 0 {
		t.Error("gateway routed no connections")
	}
	// Every frame must have arrived at least once; the kill makes extra
	// deliveries legal (duplicates), never fewer.
	want := int64(opts.sensors * opts.frames)
	if rep.DeliveredFrames < want {
		t.Errorf("delivered %d frames, want >= %d", rep.DeliveredFrames, want)
	}
	if rep.DeliveredFrames != want+cr.DuplicateFrames {
		t.Errorf("delivered %d != %d assigned + %d duplicates",
			rep.DeliveredFrames, want, cr.DuplicateFrames)
	}
}

// TestRunClusterRejectsSingleNodeOnlyFlags pins the flag-compatibility
// surface: the cluster path refuses modes it cannot honor instead of
// silently dropping them.
func TestRunClusterRejectsSingleNodeOnlyFlags(t *testing.T) {
	base := loadTestOptions()
	base.nodes = 3
	for name, mut := range map[string]func(*loadOptions){
		"project":     func(o *loadOptions) { o.project = true },
		"pace":        func(o *loadOptions) { o.pace = ingest.PaceConstant },
		"encode":      func(o *loadOptions) { o.encode = "age" },
		"kill-range":  func(o *loadOptions) { o.killNode = 3 },
		"single-node": func(o *loadOptions) { o.nodes = 1 },
		"neg-burst":   func(o *loadOptions) { o.burst = -1 },
	} {
		opts := base
		mut(&opts)
		if _, err := runCluster(opts); err == nil {
			t.Errorf("%s: runCluster accepted an incompatible option set", name)
		}
	}
}

// TestRunLoadRejectsClusterOnlyFlags is the single-node half of the
// flag-compatibility surface: connection duty-cycling and the byte-exact
// verifier only run on the cluster path, so the single-node path refuses
// them instead of running without them.
func TestRunLoadRejectsClusterOnlyFlags(t *testing.T) {
	base := loadTestOptions()
	for name, mut := range map[string]func(*loadOptions){
		"conns":  func(o *loadOptions) { o.conns = 4 },
		"burst":  func(o *loadOptions) { o.burst = 5 },
		"verify": func(o *loadOptions) { o.verify = true },
	} {
		opts := base
		mut(&opts)
		if _, err := runLoad(opts); err == nil {
			t.Errorf("%s: runLoad accepted a cluster-only option", name)
		}
	}
}
