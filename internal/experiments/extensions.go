package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/inference"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// This file holds experiments beyond the paper's tables: the downstream
// inference-utility check its system model motivates (§2.1), the
// multi-event-batch extension it claims but does not evaluate (§3.1), and
// the w_min / G_0 sensitivity ablations behind the parameter choices of
// §4.2-§4.3 ("we find that AGE's performance is not sensitive across
// G0 = 4, 6, 8").

// UtilityResult reports end-to-end event-detection accuracy (the server's
// real job) from raw data and from reconstructions under each encoder.
type UtilityResult struct {
	Dataset string
	Rate    float64
	// Accuracy of a classifier trained on raw data, evaluated on raw test
	// sequences and on reconstructions from each pipeline.
	Raw      float64
	Pipeline map[string]float64 // "uniform", "linear-std", "linear-age"
}

// InferenceUtility trains an event classifier on raw training sequences and
// measures detection accuracy on test reconstructions produced by the
// Uniform, Linear/Standard, and Linear/AGE pipelines.
func InferenceUtility(ctx context.Context, cfg Config, name string, rate float64) (*UtilityResult, error) {
	ws, err := prepareWorkloads(ctx, cfg, []string{name}, false)
	if err != nil {
		return nil, err
	}
	w := ws[name]
	var trSeq [][][]float64
	var trLab []int
	n := len(w.Train)
	for _, s := range w.Data.Sequences[:n] {
		trSeq = append(trSeq, s.Values)
		trLab = append(trLab, s.Label)
	}
	clf, err := inference.TrainClassifier(trSeq, trLab, w.Data.Meta.NumLabels, 5)
	if err != nil {
		return nil, err
	}
	// Test on the held-out tail.
	test := w.Data.Sequences[n:]
	if len(test) == 0 {
		return nil, fmt.Errorf("experiments: no held-out sequences for %s", name)
	}
	res := &UtilityResult{Dataset: name, Rate: rate, Pipeline: map[string]float64{}}
	correct := 0
	for _, s := range test {
		if clf.Predict(s.Values) == s.Label {
			correct++
		}
	}
	res.Raw = float64(correct) / float64(len(test))

	testData := &dataset.Dataset{Meta: w.Data.Meta, Sequences: test}
	cols := []string{"uniform", "linear-std", "linear-age"}
	type cellOut struct {
		acc float64
		ok  bool
	}
	labels := make([]string, len(cols))
	for i, col := range cols {
		labels[i] = fmt.Sprintf("utility/%s/%s@%g", name, col, rate)
	}
	out := make([]cellOut, len(cols))
	err = cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		pk, enc := columnSpec(cols[i])
		p, err := w.PolicyAt(pk, rate)
		if err != nil {
			return err
		}
		run, err := simulator.RunContext(ctx, simulator.RunConfig{
			Dataset: testData, Policy: p, Encoder: enc, Cipher: cfg.Cipher,
			Rate: rate, Model: energy.Default(), Seed: cfg.Seed, KeepRecons: true,
		})
		if err != nil {
			return err
		}
		correct := 0
		total := 0
		for j, sr := range run.Seqs {
			if sr.Recon == nil {
				continue // post-violation sequences carry no reconstruction
			}
			total++
			if clf.Predict(sr.Recon) == test[j].Label {
				correct++
			}
		}
		if total > 0 {
			out[i] = cellOut{acc: float64(correct) / float64(total), ok: true}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, col := range cols {
		if out[i].ok {
			res.Pipeline[col] = out[i].acc
		}
	}
	return res, nil
}

func (r *UtilityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Inference utility (%s @ %.0f%% budget): event-detection accuracy\n", r.Dataset, r.Rate*100)
	fmt.Fprintf(&b, "  raw data     %.3f\n", r.Raw)
	for _, col := range []string{"uniform", "linear-std", "linear-age"} {
		fmt.Fprintf(&b, "  %-12s %.3f\n", col, r.Pipeline[col])
	}
	return b.String()
}

// MultiEventResult reports the §3.1 extension: batches spanning two events.
type MultiEventResult struct {
	// NMI between the (pair of events) label and the message size.
	NMIStandard, NMIAGE float64
	// Attack accuracy predicting the event *pair* from sizes.
	AttackStandard, AttackAGE float64
	MajorityPct               float64
}

// MultiEvent builds double-length Epilepsy batches whose windows span two
// consecutive events and checks that (a) the Standard encoder still leaks
// the pair composition through sizes and (b) AGE still closes the channel.
func MultiEvent(ctx context.Context, cfg Config) (*MultiEventResult, error) {
	ws, err := prepareWorkloads(ctx, cfg, []string{"epilepsy"}, false)
	if err != nil {
		return nil, err
	}
	w := ws["epilepsy"]
	meta := w.Data.Meta
	// Pair consecutive sequences into one 2T window; the label encodes the
	// unordered event pair.
	pairMeta := meta
	pairMeta.Name = "epilepsy-pairs"
	pairMeta.SeqLen = 2 * meta.SeqLen
	pairMeta.NumLabels = meta.NumLabels * meta.NumLabels
	paired := &dataset.Dataset{Meta: pairMeta}
	seqs := w.Data.Sequences
	for i := 0; i+1 < len(seqs); i += 2 {
		vals := make([][]float64, 0, pairMeta.SeqLen)
		vals = append(vals, seqs[i].Values...)
		vals = append(vals, seqs[i+1].Values...)
		a, b := seqs[i].Label, seqs[i+1].Label
		if a > b {
			a, b = b, a
		}
		paired.Sequences = append(paired.Sequences, dataset.Sequence{
			Label:  a*meta.NumLabels + b,
			Values: vals,
		})
	}
	const rate = 0.7
	encoders := []simulator.EncoderKind{simulator.EncStandard, simulator.EncAGE}
	type cellOut struct {
		nmi, accPct, majPct float64
	}
	labels := []string{"multievent/std", "multievent/age"}
	out := make([]cellOut, len(encoders))
	err = cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		p, err := w.PolicyAt("linear", rate)
		if err != nil {
			return err
		}
		run, err := simulator.RunContext(ctx, simulator.RunConfig{
			Dataset: paired, Policy: p, Encoder: encoders[i], Cipher: cfg.Cipher,
			Rate: rate, Model: energy.Default(), Seed: cfg.Seed,
		})
		if err != nil {
			return err
		}
		lbls, sizes := labelsAndSizes(run)
		acc, maj, err := attackAccuracy(run.SizesByLabel, pairMeta.NumLabels, cfg, cfg.newRNG(labels[i]))
		if err != nil {
			return err
		}
		out[i] = cellOut{nmi: stats.NMI(lbls, sizes), accPct: acc * 100, majPct: maj * 100}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &MultiEventResult{
		NMIStandard: out[0].nmi, AttackStandard: out[0].accPct,
		NMIAGE: out[1].nmi, AttackAGE: out[1].accPct,
	}
	for _, c := range out {
		if c.majPct > res.MajorityPct {
			res.MajorityPct = c.majPct
		}
	}
	return res, nil
}

func (r *MultiEventResult) String() string {
	var b strings.Builder
	b.WriteString("Multi-event batches (two events per window, Epilepsy pairs @ 70%)\n")
	fmt.Fprintf(&b, "  standard: NMI %.2f, pair-attack %.1f%% (majority %.1f%%)\n",
		r.NMIStandard, r.AttackStandard, r.MajorityPct)
	fmt.Fprintf(&b, "  age:      NMI %.2f, pair-attack %.1f%%\n", r.NMIAGE, r.AttackAGE)
	return b.String()
}

// AblationPoint is one parameter setting's aggregate error.
type AblationPoint struct {
	Value   int
	MeanMAE float64
}

// AblationResult reports a parameter sensitivity sweep.
type AblationResult struct {
	Dataset   string
	Parameter string // "G0" or "w_min"
	Points    []AblationPoint
}

// AblationG0 sweeps AGE's maximum-group floor G_0 over {4, 6, 8} (the values
// the paper reports as indistinguishable, §4.3).
func AblationG0(ctx context.Context, cfg Config, name string) (*AblationResult, error) {
	return ablate(ctx, cfg, name, "G0", []int{4, 6, 8}, func(rc *simulator.RunConfig, v int) {
		rc.MinGroups = v
	})
}

// AblationWMin sweeps the pruning width floor w_min over {3, 5, 7} (§4.2:
// smaller minimums increase quantization error).
func AblationWMin(ctx context.Context, cfg Config, name string) (*AblationResult, error) {
	return ablate(ctx, cfg, name, "w_min", []int{3, 5, 7}, func(rc *simulator.RunConfig, v int) {
		rc.MinWidth = v
	})
}

func ablate(ctx context.Context, cfg Config, name, param string, values []int, apply func(*simulator.RunConfig, int)) (*AblationResult, error) {
	ws, err := prepareWorkloads(ctx, cfg, []string{name}, false)
	if err != nil {
		return nil, err
	}
	w := ws[name]
	type cellKey struct {
		value int
		rate  float64
	}
	var keys []cellKey
	var labels []string
	for _, v := range values {
		for _, rate := range cfg.Rates {
			keys = append(keys, cellKey{v, rate})
			labels = append(labels, fmt.Sprintf("ablate-%s/%s/%d@%g", param, name, v, rate))
		}
	}
	out := make([]float64, len(keys))
	err = cfg.sweep(ctx, labels, func(ctx context.Context, i int) error {
		k := keys[i]
		p, err := w.PolicyAt("linear", k.rate)
		if err != nil {
			return err
		}
		rc := simulator.RunConfig{
			Dataset: w.Data, Policy: p, Encoder: simulator.EncAGE,
			Cipher: cfg.Cipher, Rate: k.rate, Model: energy.Default(), Seed: cfg.Seed,
		}
		apply(&rc, k.value)
		run, err := simulator.RunContext(ctx, rc)
		if err != nil {
			return err
		}
		out[i] = run.MAE
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Dataset: name, Parameter: param}
	i := 0
	for _, v := range values {
		var maes []float64
		for range cfg.Rates {
			maes = append(maes, out[i])
			i++
		}
		res.Points = append(res.Points, AblationPoint{Value: v, MeanMAE: stats.Mean(maes)})
	}
	return res, nil
}

func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: AGE %s sensitivity on %s (mean MAE across budgets)\n", r.Parameter, r.Dataset)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %s = %d: %.4f\n", r.Parameter, p.Value, p.MeanMAE)
	}
	return b.String()
}
