package simulator

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/fixedpoint"
	"repro/internal/policy"
	"repro/internal/seccomm"
	"repro/internal/stats"
)

// fixture loads a small Epilepsy slice and fits a Linear policy at the rate.
func fixture(t *testing.T, rate float64) (*dataset.Dataset, policy.Policy) {
	t.Helper()
	d := dataset.MustLoad("epilepsy", dataset.Options{Seed: 3, MaxSequences: 24})
	var train [][][]float64
	for _, s := range d.Sequences {
		train = append(train, s.Values)
	}
	res, err := policy.Fit(policy.KindLinear, train, rate)
	if err != nil {
		t.Fatal(err)
	}
	return d, policy.NewLinear(res.Threshold)
}

func baseConfig(d *dataset.Dataset, p policy.Policy, enc EncoderKind, rate float64) RunConfig {
	return RunConfig{
		Dataset: d, Policy: p, Encoder: enc,
		Cipher: seccomm.ChaCha20Stream, Rate: rate,
		Model: energy.Default(), Mode: ModeSimulation, Seed: 1,
	}
}

func TestRunStandardVariesSizes(t *testing.T) {
	d, p := fixture(t, 0.7)
	res, err := RunContext(context.Background(), baseConfig(d, p, EncStandard, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, sr := range res.Seqs {
		if sr.WireBytes > 0 {
			sizes[sr.WireBytes] = true
		}
	}
	if len(sizes) < 3 {
		t.Errorf("standard encoder produced only %d distinct sizes; expected variety", len(sizes))
	}
	if res.MAE <= 0 {
		t.Errorf("MAE = %g", res.MAE)
	}
}

func TestRunAGEFixedSizes(t *testing.T) {
	d, p := fixture(t, 0.7)
	res, err := RunContext(context.Background(), baseConfig(d, p, EncAGE, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	var size int
	for _, sr := range res.Seqs {
		if sr.WireBytes == 0 {
			continue
		}
		if size == 0 {
			size = sr.WireBytes
		}
		if sr.WireBytes != size {
			t.Fatalf("AGE wire sizes differ: %d vs %d", sr.WireBytes, size)
		}
	}
	if size == 0 {
		t.Fatal("no messages sent")
	}
	// NMI between label and size must be exactly zero.
	var labels, sizes []int
	for l, ss := range res.SizesByLabel {
		for _, s := range ss {
			labels = append(labels, l)
			sizes = append(sizes, s)
		}
	}
	if nmi := stats.NMI(labels, sizes); nmi != 0 {
		t.Errorf("AGE NMI = %g, want 0", nmi)
	}
}

func TestRunStandardLeaks(t *testing.T) {
	d, p := fixture(t, 0.7)
	res, err := RunContext(context.Background(), baseConfig(d, p, EncStandard, 0.7))
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
		t.Errorf("standard adaptive policy NMI = %g; expected leakage", nmi)
	}
}

func TestRunAGEWithinBudget(t *testing.T) {
	d, p := fixture(t, 0.5)
	res, err := RunContext(context.Background(), baseConfig(d, p, EncAGE, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations > 0 {
		t.Errorf("AGE violated the budget %d times", res.Violations)
	}
	if res.TotalEnergyMJ > res.BudgetMJ {
		t.Errorf("AGE energy %g exceeds budget %g", res.TotalEnergyMJ, res.BudgetMJ)
	}
}

func TestRunPaddedViolatesTightBudget(t *testing.T) {
	d, p := fixture(t, 0.3)
	res, err := RunContext(context.Background(), baseConfig(d, p, EncPadded, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Error("padded policy never violated a 30% budget; padding overhead should exceed it")
	}
	// And its error should be far worse than AGE's under the same budget.
	ageRes, err := RunContext(context.Background(), baseConfig(d, p, EncAGE, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if ageRes.MAE >= res.MAE {
		t.Errorf("AGE MAE %g not below Padded %g under a tight budget", ageRes.MAE, res.MAE)
	}
}

func TestRunUniformZeroNMI(t *testing.T) {
	d, _ := fixture(t, 0.7)
	cfg := baseConfig(d, policy.NewUniform(0.7), EncStandard, 0.7)
	res, err := RunContext(context.Background(), cfg)
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
		t.Errorf("Uniform NMI = %g, want 0 (fixed collection count)", nmi)
	}
}

func TestRunMCUModeKeepsRunning(t *testing.T) {
	d, p := fixture(t, 0.3)
	cfg := baseConfig(d, p, EncPadded, 0.3)
	cfg.Mode = ModeMCU
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every sequence must have consumed real energy in MCU mode.
	for i, sr := range res.Seqs {
		if sr.EnergyMJ <= 0 {
			t.Fatalf("sequence %d consumed no energy in MCU mode", i)
		}
	}
	// Total energy may exceed the budget (the Table 9 padded phenomenon).
	if res.TotalEnergyMJ <= res.BudgetMJ {
		t.Log("note: padded stayed within budget on this slice")
	}
}

func TestRunBlockCipher(t *testing.T) {
	d, p := fixture(t, 0.7)
	cfg := baseConfig(d, p, EncAGE, 0.7)
	cfg.Cipher = seccomm.AES128Block
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var size int
	for _, sr := range res.Seqs {
		if sr.WireBytes == 0 {
			continue
		}
		if size == 0 {
			size = sr.WireBytes
		}
		if sr.WireBytes != size {
			t.Fatalf("AGE+AES sizes differ: %d vs %d", sr.WireBytes, size)
		}
	}
	// Wire size = IV + whole blocks.
	if (size-16)%16 != 0 {
		t.Errorf("AES wire size %d not block aligned", size)
	}
}

func TestRunRejectsEmptyDataset(t *testing.T) {
	_, p := fixture(t, 0.5)
	cfg := baseConfig(&dataset.Dataset{}, p, EncAGE, 0.5)
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	d, p := fixture(t, 0.6)
	a, err := RunContext(context.Background(), baseConfig(d, p, EncAGE, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), baseConfig(d, p, EncAGE, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if a.MAE != b.MAE || a.TotalEnergyMJ != b.TotalEnergyMJ {
		t.Error("identical configs produced different results")
	}
}

func TestVariantsErrorOrdering(t *testing.T) {
	// Table 8's qualitative claim on one workload: AGE <= Single and AGE
	// <= Pruned in reconstruction error under the same fixed size.
	d, p := fixture(t, 0.4)
	mae := map[EncoderKind]float64{}
	for _, enc := range []EncoderKind{EncAGE, EncSingle, EncPruned} {
		res, err := RunContext(context.Background(), baseConfig(d, p, enc, 0.4))
		if err != nil {
			t.Fatal(err)
		}
		mae[enc] = res.MAE
	}
	if mae[EncAGE] > mae[EncSingle]*1.02 {
		t.Errorf("AGE MAE %g above Single %g", mae[EncAGE], mae[EncSingle])
	}
	if mae[EncAGE] > mae[EncPruned]*1.02 {
		t.Errorf("AGE MAE %g above Pruned %g", mae[EncAGE], mae[EncPruned])
	}
}

func TestRandomGuessMAE(t *testing.T) {
	// Guessing uniformly in [0,1] against truth 0.5: E|U-0.5| = 0.25.
	truth := [][]float64{{0.5}}
	if got := randomGuessMAE(truth, 0, 1); got != 0.25 {
		t.Errorf("randomGuessMAE = %g, want 0.25", got)
	}
	// Against truth at an endpoint: E|U-0| = 0.5.
	if got := randomGuessMAE([][]float64{{0}}, 0, 1); got != 0.5 {
		t.Errorf("endpoint guess = %g, want 0.5", got)
	}
	if got := randomGuessMAE(truth, 1, 1); got != 0 {
		t.Errorf("degenerate range = %g", got)
	}
}

func TestRunOverSocketMatchesInProcess(t *testing.T) {
	d, p := fixture(t, 0.7)
	cfg := baseConfig(d, p, EncAGE, 0.7)
	// The socket testbed is a one-sensor fleet.
	sock, err := RunFleetContext(context.Background(), FleetConfig{Base: cfg, Sensors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sock.PerSensorMAE[0] <= 0 {
		t.Errorf("socket MAE = %g", sock.PerSensorMAE[0])
	}
	// AGE sizes over the socket are fixed too.
	var size int
	for _, ss := range sock.SizesByLabel {
		for _, s := range ss {
			if size == 0 {
				size = s
			}
			if s != size {
				t.Fatalf("socket sizes differ: %d vs %d", s, size)
			}
		}
	}

	// Under a random policy the sampling stream decides the result, so these
	// cases pin that the socket sensor draws from the same replayable
	// stream as RunContext, and builds the same codec (the MinWidth override
	// included): equal MAE bit for bit and equal attacker views. The AES
	// cases cover the block cipher, whose AGE target RoundTargetToCipher
	// rounds to whole blocks, and Standard's varying sizes under it.
	for _, c := range []struct {
		enc      EncoderKind
		cipher   seccomm.CipherKind
		rate     float64
		minWidth int
	}{
		{EncAGE, seccomm.ChaCha20Stream, 0.7, 0},
		{EncAGE, seccomm.ChaCha20Stream, 0.5, 12},
		{EncAGE, seccomm.AES128Block, 0.7, 0},
		{EncStandard, seccomm.AES128Block, 0.7, 0},
	} {
		rcfg := baseConfig(d, policy.NewRandom(0.6), c.enc, c.rate)
		rcfg.Cipher = c.cipher
		rcfg.Mode = ModeMCU
		rcfg.MinWidth = c.minWidth
		run, err := RunContext(context.Background(), rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if run.Violations != 0 {
			t.Fatalf("%+v: in-process run has %d budget violations; the comparison needs 0", c, run.Violations)
		}
		rsock, err := RunFleetContext(context.Background(), FleetConfig{Base: rcfg, Sensors: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rsock.PerSensorMAE[0]) != math.Float64bits(run.MAE) {
			t.Errorf("%+v: socket MAE %.17g, in-process MAE %.17g", c, rsock.PerSensorMAE[0], run.MAE)
		}
		if !reflect.DeepEqual(rsock.SizesByLabel, run.SizesByLabel) {
			t.Errorf("%+v: socket sizes %v, in-process sizes %v", c, rsock.SizesByLabel, run.SizesByLabel)
		}
	}
}

func TestRunOverSocketStandard(t *testing.T) {
	d, p := fixture(t, 0.7)
	cfg := baseConfig(d, p, EncStandard, 0.7)
	sock, err := RunFleetContext(context.Background(), FleetConfig{Base: cfg, Sensors: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ss := range sock.SizesByLabel {
		total += len(ss)
	}
	if total != len(d.Sequences) {
		t.Errorf("server received %d messages, want %d", total, len(d.Sequences))
	}
}

func TestBuildEncoderUnknown(t *testing.T) {
	cfg := core.Config{T: 10, D: 1, Format: fixedpoint.Format{Width: 16, NonFrac: 3}, TargetBytes: 64}
	if _, err := buildEncoder("mystery", cfg, seccomm.ChaCha20Stream); err == nil {
		t.Error("unknown encoder accepted")
	}
}

func BenchmarkRunAGEEpilepsy(b *testing.B) {
	d := dataset.MustLoad("epilepsy", dataset.Options{Seed: 3, MaxSequences: 12})
	var train [][][]float64
	for _, s := range d.Sequences {
		train = append(train, s.Values)
	}
	res, err := policy.Fit(policy.KindLinear, train, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := RunConfig{
		Dataset: d, Policy: policy.NewLinear(res.Threshold), Encoder: EncAGE,
		Cipher: seccomm.ChaCha20Stream, Rate: 0.7, Model: energy.Default(), Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunKeepRecons(t *testing.T) {
	d, p := fixture(t, 0.7)
	cfg := baseConfig(d, p, EncAGE, 0.7)
	cfg.KeepRecons = true
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range res.Seqs {
		if sr.Violated {
			continue
		}
		if len(sr.Recon) != d.Meta.SeqLen {
			t.Fatalf("sequence %d recon has %d steps", i, len(sr.Recon))
		}
	}
	// Without the flag, reconstructions are not retained.
	cfg.KeepRecons = false
	res, err = RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seqs[0].Recon != nil {
		t.Error("recon retained without KeepRecons")
	}
}

func TestRunMinWidthOverride(t *testing.T) {
	// A larger w_min forces harsher pruning under a tight budget, so the
	// delivered measurement count must not increase.
	d, p := fixture(t, 0.3)
	base := baseConfig(d, p, EncAGE, 0.3)
	narrow, err := RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.MinWidth = 12
	wideRes, err := RunContext(context.Background(), wide)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.MAE == wideRes.MAE {
		t.Log("note: w_min override did not change MAE on this slice")
	}
	// Both stay fixed-size and budget-clean.
	if wideRes.Violations > 0 {
		t.Errorf("w_min=12 run violated budget %d times", wideRes.Violations)
	}
}
