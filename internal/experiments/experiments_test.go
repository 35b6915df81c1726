package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/seccomm"
)

// tinyConfig is a fast configuration for integration tests: two datasets'
// worth of work in well under a second each.
func tinyConfig() Config {
	return Config{
		Seed:           5,
		MaxSequences:   32,
		TrainSequences: 16,
		Rates:          []float64{0.4, 0.7},
		AttackSamples:  200,
		Permutations:   300,
		Cipher:         seccomm.ChaCha20Stream,
		SkipRNN:        policy.SkipRNNTrainConfig{Hidden: 6, Epochs: 1, GateEpochs: 1, Seed: 1},
	}
}

func TestPrepareWorkload(t *testing.T) {
	w, err := PrepareWorkload("epilepsy", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Train) != 16 {
		t.Errorf("train size %d", len(w.Train))
	}
	for _, rate := range []float64{0.4, 0.7} {
		if _, ok := w.LinearFit[key(rate)]; !ok {
			t.Errorf("missing linear fit at %g", rate)
		}
		if _, ok := w.DeviationFit[key(rate)]; !ok {
			t.Errorf("missing deviation fit at %g", rate)
		}
	}
	if _, err := w.PolicyAt("uniform", 0.4); err != nil {
		t.Error(err)
	}
	if _, err := w.PolicyAt("linear", 0.4); err != nil {
		t.Error(err)
	}
	if _, err := w.PolicyAt("linear", 0.9); err == nil {
		t.Error("unfitted rate accepted")
	}
	if _, err := w.PolicyAt("mystery", 0.4); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestTable1Shape(t *testing.T) {
	cfg := tinyConfig()
	res, err := Table1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 4 {
		t.Fatalf("events = %v", res.Events)
	}
	for _, p := range res.Policies {
		statsRow, ok := res.Stats[p]
		if !ok || len(statsRow) != 4 {
			t.Fatalf("missing stats for %s", p)
		}
		// Adaptive policies must show different mean sizes per event
		// (the leak).
		allEqual := true
		for _, s := range statsRow[1:] {
			if s.Mean != statsRow[0].Mean {
				allEqual = false
			}
		}
		if allEqual {
			t.Errorf("%s: identical size means across events; no leak to demonstrate", p)
		}
	}
	if !strings.Contains(res.String(), "Seizure") {
		t.Error("render missing event names")
	}
}

func TestTable45SmallSweep(t *testing.T) {
	cfg := tinyConfig()
	res, err := Table45(context.Background(), cfg, []string{"epilepsy"})
	if err != nil {
		t.Fatal(err)
	}
	m := res.MeanMAE["epilepsy"]
	// Padded must be the worst defense under tight budgets.
	if m["linear-padded"] <= m["linear-age"] {
		t.Errorf("padded MAE %g not above AGE %g", m["linear-padded"], m["linear-age"])
	}
	// AGE stays close to the standard adaptive policy.
	if m["linear-age"] > m["linear-std"]*1.6 {
		t.Errorf("AGE MAE %g too far above standard %g", m["linear-age"], m["linear-std"])
	}
	out := res.Table4String()
	if !strings.Contains(out, "epilepsy") || !strings.Contains(out, "Overall") {
		t.Errorf("render missing rows:\n%s", out)
	}
	if !strings.Contains(res.Table5String(), "weighted") {
		t.Error("table 5 render missing title")
	}
}

func TestTable6SmallSweep(t *testing.T) {
	cfg := tinyConfig()
	res, err := Table6(context.Background(), cfg, []string{"epilepsy"})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells["epilepsy"]
	if c["linear-standard"].Max <= 0 {
		t.Error("standard policy shows zero NMI; expected leakage")
	}
	if c["linear-age"].Max != 0 || c["linear-padded"].Max != 0 {
		t.Errorf("fixed-size encoders show NMI: age %g padded %g",
			c["linear-age"].Max, c["linear-padded"].Max)
	}
	if !strings.Contains(res.String(), "epilepsy") {
		t.Error("render missing dataset")
	}
}

func TestTable8SmallSweep(t *testing.T) {
	cfg := tinyConfig()
	res, err := Table8(context.Background(), cfg, []string{"epilepsy"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"single", "unshifted", "pruned"} {
		if _, ok := res.Pct[v]["linear"]; !ok {
			t.Errorf("missing %s/linear", v)
		}
	}
	// Pruned should be clearly worse than AGE.
	if res.Pct["pruned"]["linear"] <= 0 {
		t.Errorf("pruned not worse than AGE: %g%%", res.Pct["pruned"]["linear"])
	}
	if !strings.Contains(res.String(), "pruned") {
		t.Error("render missing variant")
	}
}

func TestTableMCU(t *testing.T) {
	cfg := tinyConfig()
	res, err := TableMCU(context.Background(), cfg, "tiselac")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(MCURowOrder) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(res.BudgetsMJ) != 3 {
		t.Fatalf("budgets = %v", res.BudgetsMJ)
	}
	// Find the rows.
	byName := map[string]MCURow{}
	for _, r := range res.Rows {
		byName[r.Policy] = r
	}
	// AGE must use less energy than Padded at every budget.
	for i := range res.Rates {
		if byName["linear-age"].EnergyMJ[i] >= byName["linear-padded"].EnergyMJ[i] {
			t.Errorf("budget %d: AGE energy %g not below padded %g", i,
				byName["linear-age"].EnergyMJ[i], byName["linear-padded"].EnergyMJ[i])
		}
	}
	if !strings.Contains(res.Table9String(), "tiselac") || !strings.Contains(res.Table10String(), "tiselac") {
		t.Error("MCU renders missing dataset")
	}
}

func TestFigure1(t *testing.T) {
	res, err := Figure1(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	walking := res.Cases["walking"]["adaptive"]
	running := res.Cases["running"]["adaptive"]
	if walking.Collected >= running.Collected {
		t.Errorf("adaptive collected %d walking vs %d running; should over-sample running",
			walking.Collected, running.Collected)
	}
	if res.TotalErrorAdaptive >= res.TotalErrorRandom {
		t.Errorf("adaptive total error %g not below random %g",
			res.TotalErrorAdaptive, res.TotalErrorRandom)
	}
	if !strings.Contains(res.String(), "running") {
		t.Error("render missing series")
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Error decreases with budget for uniform.
	if res.Points[1].MAE["uniform"] > res.Points[0].MAE["uniform"] {
		t.Errorf("uniform MAE rose with budget: %g -> %g",
			res.Points[0].MAE["uniform"], res.Points[1].MAE["uniform"])
	}
	if res.Points[1].PerSeqMJ <= res.Points[0].PerSeqMJ {
		t.Error("budget energy not increasing with rate")
	}
	if !strings.Contains(res.String(), "Activity") {
		t.Error("render missing title")
	}
}

func TestFigure6(t *testing.T) {
	res, err := Figure6(context.Background(), tinyConfig(), []string{"epilepsy"})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells["epilepsy"]
	if c["linear-std"].Median <= c["linear-age"].Median {
		t.Errorf("attack on std (%g%%) not above AGE (%g%%)",
			c["linear-std"].Median, c["linear-age"].Median)
	}
	// AGE accuracy collapses to the majority baseline (within noise).
	if c["linear-age"].Max > c["linear-age"].MajorityPct+10 {
		t.Errorf("AGE attack %g%% well above majority %g%%",
			c["linear-age"].Max, c["linear-age"].MajorityPct)
	}
	if !strings.Contains(res.String(), "epilepsy") {
		t.Error("render missing dataset")
	}
}

func TestFigure7(t *testing.T) {
	res, err := Figure7(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	std, age := res.Confusion["std"], res.Confusion["age"]
	// Standard: seizure recall should be high.
	if std[0][0] == 0 {
		t.Error("standard policy: no seizures detected; expected leak")
	}
	// AGE: no seizure predictions at all (all collapse to majority).
	if age[0][0]+age[1][0] != 0 {
		t.Errorf("AGE: %d seizure predictions; expected none", age[0][0]+age[1][0])
	}
	if res.Accuracy["std"] <= res.Accuracy["age"] {
		t.Errorf("std attack accuracy %g not above AGE %g", res.Accuracy["std"], res.Accuracy["age"])
	}
	if !strings.Contains(res.String(), "seizure") {
		t.Error("render missing matrix")
	}
}

func TestSec58(t *testing.T) {
	res, err := Sec58(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.EncodeAGEMJ <= res.EncodeStandardMJ {
		t.Error("AGE encode energy not above standard")
	}
	if res.CommSavedMJ <= res.EncodeAGEMJ {
		t.Errorf("comm saving %g does not eclipse AGE encode cost %g — the §4.5 argument fails",
			res.CommSavedMJ, res.EncodeAGEMJ)
	}
	if res.ReductionBytes < 30 {
		t.Errorf("reduction = %dB, want >= 30", res.ReductionBytes)
	}
	if !strings.Contains(res.String(), "overhead") {
		t.Error("render missing title")
	}
}

func TestTable7SingleDataset(t *testing.T) {
	cfg := tinyConfig()
	rows, err := Table7(context.Background(), cfg, []string{"epilepsy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.NMIAGE != 0 {
		t.Errorf("Skip RNN with AGE NMI = %g, want 0", r.NMIAGE)
	}
	if r.MAEStd <= 0 || r.MAEAGE <= 0 {
		t.Errorf("MAEs: std %g age %g", r.MAEStd, r.MAEAGE)
	}
	if !strings.Contains(Table7String(rows), "epilepsy") {
		t.Error("render missing dataset")
	}
}

// TestSkipPolicyMemo: concurrent callers share one fit per exact rate, the
// fit is the one FitBias returns, and distinct rates fit separately, even
// rates that key() would merge.
func TestSkipPolicyMemo(t *testing.T) {
	w, err := PrepareWorkload("epilepsy", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.4, 0.7, 0.41}
	got := make([][]policy.Policy, 4)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]policy.Policy, len(rates))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rates {
				r := (i + g) % len(rates)
				p, err := w.PolicyAt("skiprnn", rates[r])
				if err != nil {
					t.Error(err)
				}
				got[g][r] = p
			}
		}()
	}
	wg.Wait()
	model, err := w.SkipModel()
	if err != nil {
		t.Fatal(err)
	}
	for r, rate := range rates {
		p := got[0][r].(*policy.SkipRNN)
		for g := range got {
			if got[g][r] != p {
				t.Errorf("rate %g: caller %d got a different fit", rate, g)
			}
		}
		if _, fit := model.FitBias(w.Train, rate); p.Bias() != fit.Threshold {
			t.Errorf("rate %g: memoized bias %g, FitBias %g", rate, p.Bias(), fit.Threshold)
		}
	}
	if got[0][0] == got[0][2] {
		t.Error("rates 0.4 and 0.41 share a fit")
	}
}
