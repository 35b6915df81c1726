package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/seccomm"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// SizeStat summarizes a conditional message-size distribution.
type SizeStat struct {
	Mean, Std float64
	N         int
}

// Table1Result reproduces Table 1: average (standard deviation) message size
// of adaptive policies conditioned on the underlying event, on the Epilepsy
// task. Welch reports the largest pairwise p-value between events per
// policy (the paper finds all pairs significant at alpha = 0.01).
type Table1Result struct {
	Rate     float64
	Events   []string
	Policies []string
	// Stats[policy][eventIdx]
	Stats map[string][]SizeStat
	// MaxPairwiseP[policy] is the largest Welch's t-test p-value over all
	// event pairs.
	MaxPairwiseP map[string]float64
}

// Table1 measures per-event message sizes for the three adaptive policies on
// Epilepsy with the Standard encoder.
func Table1(ctx context.Context, cfg Config) (*Table1Result, error) {
	const rate = 0.7
	ws, err := prepareWorkloads(ctx, cfg, []string{"epilepsy"}, true)
	if err != nil {
		return nil, err
	}
	w := ws["epilepsy"]
	res := &Table1Result{
		Rate:         rate,
		Events:       dataset.LabelNames("epilepsy"),
		Policies:     []string{"linear", "deviation", "skiprnn"},
		Stats:        map[string][]SizeStat{},
		MaxPairwiseP: map[string]float64{},
	}
	type cell struct {
		stats []SizeStat
		maxP  float64
	}
	out := make([]cell, len(res.Policies))
	labels := make([]string, len(res.Policies))
	for i, pk := range res.Policies {
		labels[i] = fmt.Sprintf("table1/%s@%g", pk, rate)
	}
	err = cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		run, err := w.RunCell(ctx, res.Policies[i], simulator.EncStandard, rate, simulator.ModeSimulation)
		if err != nil {
			return err
		}
		perEvent := make([][]float64, len(res.Events))
		for l := range perEvent {
			for _, s := range run.SizesByLabel[l] {
				perEvent[l] = append(perEvent[l], float64(s))
			}
		}
		c := cell{stats: make([]SizeStat, len(res.Events))}
		for l, sizes := range perEvent {
			c.stats[l] = SizeStat{Mean: stats.Mean(sizes), Std: stats.StdDev(sizes), N: len(sizes)}
		}
		for a := 0; a < len(perEvent); a++ {
			for b := a + 1; b < len(perEvent); b++ {
				if p := stats.WelchTTest(perEvent[a], perEvent[b]).P; p > c.maxP {
					c.maxP = p
				}
			}
		}
		out[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, pk := range res.Policies {
		res.Stats[pk] = out[i].stats
		res.MaxPairwiseP[pk] = out[i].maxP
	}
	return res, nil
}

// ErrorCell is one (policy, encoder, budget) outcome.
type ErrorCell struct {
	MAE, WeightedMAE float64
	EnergyMJ         float64
	BudgetMJ         float64
	Violations       int
}

// ErrorColumns lists the seven policy/encoder columns of Tables 4 and 5.
var ErrorColumns = []string{
	"uniform",
	"linear-std", "linear-padded", "linear-age",
	"deviation-std", "deviation-padded", "deviation-age",
}

// columnSpec decomposes a column name into its simulator inputs.
func columnSpec(col string) (policyKind string, enc simulator.EncoderKind) {
	switch col {
	case "uniform":
		return "uniform", simulator.EncStandard
	case "linear-std":
		return "linear", simulator.EncStandard
	case "linear-padded":
		return "linear", simulator.EncPadded
	case "linear-age":
		return "linear", simulator.EncAGE
	case "deviation-std":
		return "deviation", simulator.EncStandard
	case "deviation-padded":
		return "deviation", simulator.EncPadded
	case "deviation-age":
		return "deviation", simulator.EncAGE
	default:
		panic("experiments: unknown column " + col)
	}
}

// ErrorSweep holds the full Tables 4/5 grid.
type ErrorSweep struct {
	Datasets []string
	Rates    []float64
	// Cells[dataset][column][rateIdx]
	Cells map[string]map[string][]ErrorCell
}

// RunErrorSweep runs every (dataset, column, rate) simulation of Tables 4-5.
func RunErrorSweep(ctx context.Context, cfg Config, datasets []string) (*ErrorSweep, error) {
	if datasets == nil {
		datasets = dataset.Names()
	}
	ws, err := prepareWorkloads(ctx, cfg, datasets, false)
	if err != nil {
		return nil, err
	}
	type cellKey struct {
		name, col string
		rate      float64
	}
	var keys []cellKey
	var labels []string
	for _, name := range datasets {
		for _, col := range ErrorColumns {
			for _, rate := range cfg.Rates {
				keys = append(keys, cellKey{name, col, rate})
				labels = append(labels, fmt.Sprintf("sweep/%s/%s@%g", name, col, rate))
			}
		}
	}
	out := make([]ErrorCell, len(keys))
	err = cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		k := keys[i]
		pk, enc := columnSpec(k.col)
		run, err := ws[k.name].RunCell(ctx, pk, enc, k.rate, simulator.ModeSimulation)
		if err != nil {
			return fmt.Errorf("experiments: %s/%s@%g: %w", k.name, k.col, k.rate, err)
		}
		out[i] = ErrorCell{
			MAE: run.MAE, WeightedMAE: run.WeightedMAE,
			EnergyMJ: run.TotalEnergyMJ, BudgetMJ: run.BudgetMJ,
			Violations: run.Violations,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sweep := &ErrorSweep{Datasets: datasets, Rates: cfg.Rates, Cells: map[string]map[string][]ErrorCell{}}
	i := 0
	for _, name := range datasets {
		sweep.Cells[name] = map[string][]ErrorCell{}
		for _, col := range ErrorColumns {
			sweep.Cells[name][col] = out[i : i+len(cfg.Rates) : i+len(cfg.Rates)]
			i += len(cfg.Rates)
		}
	}
	return sweep, nil
}

// Table45Result carries Tables 4 and 5 (mean and weighted mean MAE across
// budgets) plus the overall median-percent-vs-Uniform rows.
type Table45Result struct {
	Sweep *ErrorSweep
	// MeanMAE[dataset][column] and MeanWeighted[dataset][column] average
	// the 8 budgets.
	MeanMAE, MeanWeighted map[string]map[string]float64
	// OverallPct[column] is the median percent error above Uniform across
	// every dataset and budget (negative = better than Uniform).
	OverallPct, OverallPctWeighted map[string]float64
}

// Table45 runs the error sweep and reduces it to the published rows.
func Table45(ctx context.Context, cfg Config, datasets []string) (*Table45Result, error) {
	sweep, err := RunErrorSweep(ctx, cfg, datasets)
	if err != nil {
		return nil, err
	}
	return reduceTable45(sweep), nil
}

func reduceTable45(sweep *ErrorSweep) *Table45Result {
	res := &Table45Result{
		Sweep:              sweep,
		MeanMAE:            map[string]map[string]float64{},
		MeanWeighted:       map[string]map[string]float64{},
		OverallPct:         map[string]float64{},
		OverallPctWeighted: map[string]float64{},
	}
	pct := map[string][]float64{}
	pctW := map[string][]float64{}
	for _, name := range sweep.Datasets {
		res.MeanMAE[name] = map[string]float64{}
		res.MeanWeighted[name] = map[string]float64{}
		for _, col := range ErrorColumns {
			var m, wm []float64
			for _, c := range sweep.Cells[name][col] {
				m = append(m, c.MAE)
				wm = append(wm, c.WeightedMAE)
			}
			res.MeanMAE[name][col] = stats.Mean(m)
			res.MeanWeighted[name][col] = stats.Mean(wm)
		}
		for ri := range sweep.Rates {
			base := sweep.Cells[name]["uniform"][ri]
			for _, col := range ErrorColumns {
				c := sweep.Cells[name][col][ri]
				if base.MAE > 0 {
					pct[col] = append(pct[col], 100*(c.MAE-base.MAE)/base.MAE)
				}
				if base.WeightedMAE > 0 {
					pctW[col] = append(pctW[col], 100*(c.WeightedMAE-base.WeightedMAE)/base.WeightedMAE)
				}
			}
		}
	}
	for _, col := range ErrorColumns {
		res.OverallPct[col] = stats.Median(pct[col])
		res.OverallPctWeighted[col] = stats.Median(pctW[col])
	}
	return res
}

// NMICell is one (policy, encoder) NMI summary for Table 6.
type NMICell struct {
	Median, Max float64
	// SignificantFrac is the fraction of budgets whose permutation test
	// puts the whole 95% CI below 0.01 (§5.3).
	SignificantFrac float64
}

// Table6Result reproduces Table 6: NMI between message size and event label
// for the Standard, Padded, and AGE encoders under both adaptive policies.
type Table6Result struct {
	Datasets []string
	// Cells[dataset][policy-encoder], e.g. "linear-std", "linear-age".
	Cells map[string]map[string]NMICell
}

// Table6 sweeps NMI across datasets, budgets, policies, and encoders. Each
// (dataset, policy, encoder, budget) cell draws its permutation-test RNG from
// its own tag, so results are identical for any worker count.
func Table6(ctx context.Context, cfg Config, datasets []string) (*Table6Result, error) {
	if datasets == nil {
		datasets = dataset.Names()
	}
	ws, err := prepareWorkloads(ctx, cfg, datasets, false)
	if err != nil {
		return nil, err
	}
	policies := []string{"linear", "deviation"}
	encoders := []simulator.EncoderKind{simulator.EncStandard, simulator.EncPadded, simulator.EncAGE}
	type cellKey struct {
		name, pk string
		enc      simulator.EncoderKind
		rate     float64
	}
	type cellOut struct {
		nmi float64
		sig bool
	}
	var keys []cellKey
	var labels []string
	for _, name := range datasets {
		for _, pk := range policies {
			for _, enc := range encoders {
				for _, rate := range cfg.Rates {
					keys = append(keys, cellKey{name, pk, enc, rate})
					labels = append(labels, fmt.Sprintf("table6/%s/%s-%s@%g", name, pk, enc, rate))
				}
			}
		}
	}
	out := make([]cellOut, len(keys))
	err = cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		k := keys[i]
		run, err := ws[k.name].RunCell(ctx, k.pk, k.enc, k.rate, simulator.ModeSimulation)
		if err != nil {
			return err
		}
		lbls, sizes := labelsAndSizes(run)
		c := cellOut{nmi: stats.NMI(lbls, sizes)}
		if k.enc == simulator.EncStandard && cfg.Permutations > 0 {
			pt := stats.PermutationTestNMI(lbls, sizes, cfg.Permutations, cfg.newRNG(labels[i]))
			c.sig = pt.Significant(0.01)
		}
		out[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table6Result{Datasets: datasets, Cells: map[string]map[string]NMICell{}}
	i := 0
	for _, name := range datasets {
		res.Cells[name] = map[string]NMICell{}
		for _, pk := range policies {
			for _, enc := range encoders {
				var nmis []float64
				sig := 0
				for range cfg.Rates {
					nmis = append(nmis, out[i].nmi)
					if out[i].sig {
						sig++
					}
					i++
				}
				res.Cells[name][fmt.Sprintf("%s-%s", pk, enc)] = NMICell{
					Median:          stats.Median(nmis),
					Max:             stats.Max(nmis),
					SignificantFrac: float64(sig) / float64(len(cfg.Rates)),
				}
			}
		}
	}
	return res, nil
}

// Table7Row is one dataset's Skip RNN outcome (§5.5).
type Table7Row struct {
	Dataset              string
	MAEStd, MAEAGE       float64
	NMIStd, NMIAGE       float64 // maxima across rates
	AttackStd, AttackAGE float64 // max accuracy (percent)
	MajorityBaselinePct  float64
}

// Table7 evaluates Skip RNNs with and without AGE on every dataset.
func Table7(ctx context.Context, cfg Config, datasets []string) ([]Table7Row, error) {
	if datasets == nil {
		datasets = dataset.Names()
	}
	ws, err := prepareWorkloads(ctx, cfg, datasets, true)
	if err != nil {
		return nil, err
	}
	encoders := []simulator.EncoderKind{simulator.EncStandard, simulator.EncAGE}
	type cellKey struct {
		name string
		rate float64
		enc  simulator.EncoderKind
	}
	type cellOut struct {
		mae, nmi, acc, maj float64
	}
	var keys []cellKey
	var labels []string
	for _, name := range datasets {
		for _, rate := range cfg.Rates {
			for _, enc := range encoders {
				keys = append(keys, cellKey{name, rate, enc})
				labels = append(labels, fmt.Sprintf("table7/%s/%s@%g", name, enc, rate))
			}
		}
	}
	out := make([]cellOut, len(keys))
	err = cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		k := keys[i]
		w := ws[k.name]
		run, err := w.RunCell(ctx, "skiprnn", k.enc, k.rate, simulator.ModeSimulation)
		if err != nil {
			return err
		}
		lbls, sizes := labelsAndSizes(run)
		acc, maj, err := attackAccuracy(run.SizesByLabel, w.Data.Meta.NumLabels, cfg, cfg.newRNG(labels[i]))
		if err != nil {
			return err
		}
		out[i] = cellOut{mae: run.MAE, nmi: stats.NMI(lbls, sizes), acc: acc, maj: maj}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table7Row
	i := 0
	for _, name := range datasets {
		row := Table7Row{Dataset: name}
		var maeStd, maeAGE []float64
		for range cfg.Rates {
			for _, enc := range encoders {
				c := out[i]
				i++
				if enc == simulator.EncStandard {
					maeStd = append(maeStd, c.mae)
					row.NMIStd = math.Max(row.NMIStd, c.nmi)
					row.AttackStd = math.Max(row.AttackStd, c.acc*100)
				} else {
					maeAGE = append(maeAGE, c.mae)
					row.NMIAGE = math.Max(row.NMIAGE, c.nmi)
					row.AttackAGE = math.Max(row.AttackAGE, c.acc*100)
				}
				row.MajorityBaselinePct = math.Max(row.MajorityBaselinePct, c.maj*100)
			}
		}
		row.MAEStd = stats.Mean(maeStd)
		row.MAEAGE = stats.Mean(maeAGE)
		rows = append(rows, row)
	}
	return rows, nil
}

// Table8Result reproduces Table 8: the median percent error of each AGE
// ablation variant above full AGE, across all datasets and budgets.
type Table8Result struct {
	// Pct[variant][policy], variants "single", "unshifted", "pruned".
	Pct map[string]map[string]float64
}

// Table8 compares the §5.6 variants against full AGE.
func Table8(ctx context.Context, cfg Config, datasets []string) (*Table8Result, error) {
	if datasets == nil {
		datasets = dataset.Names()
	}
	ws, err := prepareWorkloads(ctx, cfg, datasets, false)
	if err != nil {
		return nil, err
	}
	variants := []simulator.EncoderKind{simulator.EncSingle, simulator.EncUnshifted, simulator.EncPruned}
	policies := []string{"linear", "deviation"}
	type cellKey struct {
		name, pk string
		rate     float64
	}
	type cellOut struct {
		diffs [3]float64
		valid bool
	}
	var keys []cellKey
	var labels []string
	for _, name := range datasets {
		for _, pk := range policies {
			for _, rate := range cfg.Rates {
				keys = append(keys, cellKey{name, pk, rate})
				labels = append(labels, fmt.Sprintf("table8/%s/%s@%g", name, pk, rate))
			}
		}
	}
	out := make([]cellOut, len(keys))
	err = cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		k := keys[i]
		w := ws[k.name]
		base, err := w.RunCell(ctx, k.pk, simulator.EncAGE, k.rate, simulator.ModeSimulation)
		if err != nil {
			return err
		}
		if base.MAE <= 0 {
			return nil
		}
		c := cellOut{valid: true}
		for vi, v := range variants {
			run, err := w.RunCell(ctx, k.pk, v, k.rate, simulator.ModeSimulation)
			if err != nil {
				return err
			}
			c.diffs[vi] = 100 * (run.MAE - base.MAE) / base.MAE
		}
		out[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	diffs := map[string]map[string][]float64{}
	for _, v := range variants {
		diffs[string(v)] = map[string][]float64{}
	}
	for i, k := range keys {
		if !out[i].valid {
			continue
		}
		for vi, v := range variants {
			diffs[string(v)][k.pk] = append(diffs[string(v)][k.pk], out[i].diffs[vi])
		}
	}
	res := &Table8Result{Pct: map[string]map[string]float64{}}
	//age:allow detrand every write is keyed by the loop variables, so iteration order cannot change the result
	for v, byPolicy := range diffs {
		res.Pct[v] = map[string]float64{}
		for pk, ds := range byPolicy {
			res.Pct[v][pk] = stats.Median(ds)
		}
	}
	return res, nil
}

// MCURow is one policy row of Tables 9 and 10 on one dataset.
type MCURow struct {
	Policy string // "uniform", "linear", "linear-padded", ...
	// EnergyMJ[budgetIdx] is the mean energy per sequence; MAE[budgetIdx]
	// the reconstruction error under that budget.
	EnergyMJ []float64
	MAE      []float64
}

// MCUResult reproduces Tables 9 and 10: per-sequence energy and error on the
// MCU configuration (75 sequences, AES-128, budgets at 40/70/100%).
type MCUResult struct {
	Dataset   string
	BudgetsMJ []float64 // total budget per run, in mJ (displayed as J in the paper)
	Rates     []float64
	Rows      []MCURow
}

// MCURowOrder lists the Tables 9/10 policy rows.
var MCURowOrder = []string{
	"uniform",
	"linear-std", "linear-padded", "linear-age",
	"deviation-std", "deviation-padded", "deviation-age",
}

// TableMCU runs the §5.7 hardware-configuration evaluation on one dataset.
func TableMCU(ctx context.Context, cfg Config, name string) (*MCUResult, error) {
	mcuCfg := cfg
	mcuCfg.MaxSequences = 75
	mcuCfg.Cipher = seccomm.AES128Block
	mcuCfg.Rates = []float64{0.4, 0.7, 1.0}
	ws, err := prepareWorkloads(ctx, mcuCfg, []string{name}, false)
	if err != nil {
		return nil, err
	}
	w := ws[name]
	type cellOut struct {
		energyMJ, mae, budgetMJ float64
	}
	var keys []struct {
		col  string
		rate float64
	}
	var labels []string
	for _, col := range MCURowOrder {
		for _, rate := range mcuCfg.Rates {
			keys = append(keys, struct {
				col  string
				rate float64
			}{col, rate})
			labels = append(labels, fmt.Sprintf("mcu/%s/%s@%g", name, col, rate))
		}
	}
	out := make([]cellOut, len(keys))
	err = mcuCfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		k := keys[i]
		pk, enc := columnSpec(k.col)
		run, err := w.RunCell(ctx, pk, enc, k.rate, simulator.ModeMCU)
		if err != nil {
			return err
		}
		out[i] = cellOut{
			energyMJ: run.TotalEnergyMJ / float64(len(run.Seqs)),
			mae:      run.MAE,
			budgetMJ: run.BudgetMJ,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &MCUResult{Dataset: name, Rates: mcuCfg.Rates}
	i := 0
	for _, col := range MCURowOrder {
		row := MCURow{Policy: col}
		for range mcuCfg.Rates {
			row.EnergyMJ = append(row.EnergyMJ, out[i].energyMJ)
			row.MAE = append(row.MAE, out[i].mae)
			if col == "uniform" {
				res.BudgetsMJ = append(res.BudgetsMJ, out[i].budgetMJ)
			}
			i++
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// attackAccuracy runs the §5.4 attack on observed sizes and returns the CV
// accuracy and the majority baseline. Labels missing from the size map (all
// of their messages suppressed) make the attack infeasible as specified; the
// attacker then only sees the remaining labels.
func attackAccuracy(sizesByLabel map[int][]int, numClasses int, cfg Config, rng *rand.Rand) (acc, majority float64, err error) {
	present := map[int][]int{}
	//age:allow detrand key-indexed filter into a map; consumers (attack.BuildSamples) iterate labels in sorted order
	for l, ss := range sizesByLabel {
		if len(ss) > 0 {
			present[l] = ss
		}
	}
	if len(present) < 2 {
		// One observable event: nothing to classify; the attacker is
		// exactly at the majority baseline.
		return 1, 1, nil
	}
	samples, err := attack.BuildSamples(present, cfg.AttackSamples, rng)
	if err != nil {
		return 0, 0, err
	}
	res, err := attack.CrossValidate(samples, numClasses, 5, attack.DefaultAdaBoostConfig(), rng)
	if err != nil {
		return 0, 0, err
	}
	return res.MeanAccuracy, res.Majority, nil
}

// sortedKeys returns map keys in ascending order (shared test helper).
func sortedKeys(m map[int][]int) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
