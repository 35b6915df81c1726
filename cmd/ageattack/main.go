// Command ageattack mounts the §5.4 message-size attack against one
// configuration and prints the cross-validated accuracy, the majority
// baseline, and the confusion matrix. With -timing it instead mounts the
// inter-frame timing attack on three live ingest links (undefended,
// constant-rate paced, jitter paced) and prints the attack/defense table;
// -assert-defense additionally exits non-zero unless the undefended link
// leaks and the paced links do not, for CI smoke tests.
//
// Usage:
//
//	ageattack -dataset epilepsy -policy linear -encoder standard -rate 0.7
//	ageattack -dataset epilepsy -policy linear -encoder age -rate 0.7
//	ageattack -timing -dataset epilepsy -rate 0.7 -assert-defense
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/seccomm"
	"repro/internal/simulator"
)

func main() {
	log.SetFlags(0)
	var (
		dsName  = flag.String("dataset", "epilepsy", "dataset name")
		polName = flag.String("policy", "linear", "uniform | linear | deviation")
		encName = flag.String("encoder", "standard", "standard | padded | age")
		rate    = flag.Float64("rate", 0.7, "budget collection rate")
		maxSeq  = flag.Int("max-seq", 96, "sequences to simulate")
		samples = flag.Int("samples", 1000, "attack windows")
		seed    = flag.Int64("seed", 1, "random seed")

		timing    = flag.Bool("timing", false, "mount the inter-frame timing attack on live ingest links")
		sensors   = flag.Int("sensors", 4, "timing: fleet size behind the ingest server")
		interval  = flag.Duration("interval", 4*time.Millisecond, "timing: paced release interval")
		paceJit   = flag.Float64("pace-jitter", 0.3, "timing: jitter fraction for the jittered mode")
		perms     = flag.Int("permutations", 10000, "timing: permutation test iterations")
		assertDef = flag.Bool("assert-defense", false, "timing: exit non-zero unless undefended leaks and paced does not")
	)
	flag.Parse()

	if *timing {
		runTimingAttack(*dsName, *rate, *maxSeq, *samples, *seed,
			*sensors, *interval, *paceJit, *perms, *assertDef)
		return
	}

	data, err := dataset.Load(*dsName, dataset.Options{Seed: *seed, MaxSequences: *maxSeq})
	if err != nil {
		log.Fatal(err)
	}
	var pol policy.Policy
	switch *polName {
	case "uniform":
		pol = policy.NewUniform(*rate)
	case "linear", "deviation":
		var train [][][]float64
		for _, s := range data.Sequences[:len(data.Sequences)/3] {
			train = append(train, s.Values)
		}
		fit, err := policy.Fit(policy.AdaptiveKind(*polName), train, *rate)
		if err != nil {
			log.Fatal(err)
		}
		pol, err = policy.NewAdaptive(policy.AdaptiveKind(*polName), fit.Threshold)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown policy %q", *polName)
	}

	res, err := simulator.RunContext(context.Background(), simulator.RunConfig{
		Dataset: data, Policy: pol, Encoder: simulator.EncoderKind(*encName),
		Cipher: seccomm.ChaCha20Stream, Rate: *rate, Model: energy.Default(), Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	atkSamples, err := attack.BuildSamples(res.SizesByLabel, *samples, rng)
	if err != nil {
		log.Fatal(err)
	}
	cv, err := attack.CrossValidate(atkSamples, data.Meta.NumLabels, 5, attack.DefaultAdaBoostConfig(), rng)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("attack on %s / %s / %s @ %.0f%%\n", *dsName, *polName, *encName, *rate*100)
	fmt.Printf("accuracy:  %.1f%% (folds: ", cv.MeanAccuracy*100)
	for i, a := range cv.FoldAccuracies {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%.1f", a*100)
	}
	fmt.Printf(")\nmajority:  %.1f%%\n", cv.Majority*100)
	fmt.Printf("advantage: %.2fx over guessing\n", cv.MeanAccuracy/cv.Majority)

	events := dataset.LabelNames(*dsName)
	fmt.Println("confusion (rows = truth, cols = prediction):")
	fmt.Printf("%-14s", "")
	for c := range cv.Confusion {
		name := fmt.Sprintf("c%d", c)
		if c < len(events) {
			name = events[c]
		}
		fmt.Printf(" %10.10s", name)
	}
	fmt.Println()
	for r, row := range cv.Confusion {
		name := fmt.Sprintf("c%d", r)
		if r < len(events) {
			name = events[r]
		}
		fmt.Printf("%-14.14s", name)
		for _, v := range row {
			fmt.Printf(" %10d", v)
		}
		fmt.Println()
	}
}

// runTimingAttack drives the timing attack/defense evaluation over real
// loopback ingest links and optionally asserts the defense for CI.
func runTimingAttack(dsName string, rate float64, maxSeq, samples int, seed int64,
	sensors int, interval time.Duration, paceJit float64, perms int, assertDef bool) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.MaxSequences = maxSeq
	cfg.TrainSequences = maxSeq / 3
	cfg.Rates = []float64{rate}
	cfg.AttackSamples = samples
	cfg.Permutations = perms

	tcfg := experiments.DefaultTimingConfig()
	tcfg.Sensors = sensors
	tcfg.Interval = interval
	tcfg.JitterFrac = paceJit

	res, err := experiments.TimingLeakage(context.Background(), cfg, tcfg, dsName, rate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.String())

	if !assertDef {
		return
	}
	live, constant := res.Mode("live"), res.Mode("constant")
	if live == nil || constant == nil {
		log.Fatal("assert-defense: missing live or constant row")
	}
	failed := false
	if !live.Significant {
		log.Printf("FAIL: undefended link not significant (NMI %.3f, p %.5f, CI high %.5f) — the timing attack should work",
			live.NMI, live.PValue, live.CIHigh)
		failed = true
	}
	if live.AttackAccuracy < live.Majority+0.2 {
		log.Printf("FAIL: undefended attack accuracy %.3f vs majority %.3f — the timing attack should work",
			live.AttackAccuracy, live.Majority)
		failed = true
	}
	for _, mode := range []string{"constant", "jitter"} {
		if row := res.Mode(mode); row != nil && row.Significant {
			log.Printf("FAIL: %s pacing still significant (NMI %.3f, p %.5f) — the defense should close the channel",
				mode, row.NMI, row.PValue)
			failed = true
		}
	}
	if failed {
		log.Fatal("assert-defense: timing defense check failed")
	}
	fmt.Println("assert-defense: undefended link leaks, paced links do not")
}
