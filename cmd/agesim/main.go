// Command agesim runs one end-to-end sensor/server simulation — the
// artifact's basic workflow — and reports error, energy, budget compliance,
// and the attacker-visible message-size distribution.
//
// Usage:
//
//	agesim -dataset epilepsy -policy linear -encoder age -rate 0.7
//	agesim -dataset tiselac -policy deviation -encoder padded -cipher aes -socket
//	agesim -dataset activity -encoder age -fleet 20 -io-timeout 2s
//	agesim -fleet 8 -metrics-addr 127.0.0.1:8080 -metrics-hold 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/seccomm"
	"repro/internal/simulator"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	var (
		dsName  = flag.String("dataset", "epilepsy", "dataset name (see -list)")
		polName = flag.String("policy", "linear", "uniform | random | linear | deviation | skiprnn")
		encName = flag.String("encoder", "age", "standard | padded | age | single | unshifted | pruned")
		cipher  = flag.String("cipher", "chacha", "chacha | aes")
		rate    = flag.Float64("rate", 0.7, "budget collection rate (0.3 .. 1.0)")
		maxSeq  = flag.Int("max-seq", 96, "sequences to simulate (0 = full dataset)")
		seed    = flag.Int64("seed", 1, "random seed")
		socket  = flag.Bool("socket", false, "run sensor and server over a real TCP loopback socket")
		fleet   = flag.Int("fleet", 0, "run N concurrent sensors against one server (0 = single sensor)")
		list    = flag.Bool("list", false, "list datasets and exit")

		ioTimeout    = flag.Duration("io-timeout", 0, "per-frame read/write deadline in socket/fleet mode (0 = default 5s)")
		dialTimeout  = flag.Duration("dial-timeout", 0, "socket/fleet: single TCP connect attempt bound (0 = default 2s)")
		dialAttempts = flag.Int("dial-attempts", 0, "socket/fleet: connect attempts per sensor with exponential backoff (0 = default 4)")
		runTimeout   = flag.Duration("run-timeout", 0, "whole-run bound; on expiry a fleet's partial result is reported (0 = none)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (snapshot JSON) and /debug/pprof on this address (e.g. 127.0.0.1:8080); observation-only, results are unchanged")
		metricsHold = flag.Duration("metrics-hold", 0, "keep the metrics endpoint up this long after the run finishes (lets scrapers read the final state)")
	)
	flag.Parse()
	if *list {
		for _, n := range dataset.Names() {
			m, _ := dataset.MetaFor(n)
			fmt.Printf("%-12s %6d seqs x %4d steps x %2d features, %2d labels, %v\n",
				n, m.NumSeq, m.SeqLen, m.NumFeatures, m.NumLabels, m.Format)
		}
		return
	}

	data, err := dataset.Load(*dsName, dataset.Options{Seed: *seed, MaxSequences: *maxSeq})
	if err != nil {
		log.Fatal(err)
	}
	pol, err := buildPolicy(*polName, data, *rate, *seed)
	if err != nil {
		log.Fatal(err)
	}
	ck := seccomm.ChaCha20Stream
	if *cipher == "aes" {
		ck = seccomm.AES128Block
	}
	// The registry exists only when observation was asked for; a nil registry
	// keeps every instrument a no-op throughout the pipeline.
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		srv, err := reg.ListenAndServe(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics and /debug/pprof/ on http://%s\n", srv.Addr)
	}
	cfg := simulator.RunConfig{
		Dataset: data,
		Policy:  pol,
		Encoder: simulator.EncoderKind(*encName),
		Cipher:  ck,
		Rate:    *rate,
		Model:   energy.Default(),
		Seed:    *seed,
		Metrics: reg,
	}
	ctx := context.Background()
	if *runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runTimeout)
		defer cancel()
	}
	// The socket run is a one-sensor fleet.
	fcfg := simulator.FleetConfig{
		Base:         cfg,
		Sensors:      *fleet,
		DialTimeout:  *dialTimeout,
		DialAttempts: *dialAttempts,
		IOTimeout:    *ioTimeout,
	}

	switch {
	case *fleet > 0:
		runFleet(ctx, fcfg, *dsName, *encName)
	case *socket:
		fcfg.Sensors = 1
		res, err := simulator.RunFleetContext(ctx, fcfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("socket run: %s / %s / %s @ %.0f%%\n", *dsName, *polName, *encName, *rate*100)
		fmt.Printf("MAE: %.4f\n", res.PerSensorMAE[0])
		printSizes(res.SizesByLabel, *dsName)
	default:
		res, err := simulator.RunContext(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run: %s / %s / %s / %s @ %.0f%% over %d sequences\n",
			*dsName, *polName, *encName, ck, *rate*100, len(res.Seqs))
		fmt.Printf("MAE:            %.4f\n", res.MAE)
		fmt.Printf("weighted MAE:   %.4f\n", res.WeightedMAE)
		fmt.Printf("energy:         %.1f mJ (budget %.1f mJ)\n", res.TotalEnergyMJ, res.BudgetMJ)
		fmt.Printf("violations:     %d\n", res.Violations)
		printSizes(res.SizesByLabel, *dsName)
	}

	if reg != nil {
		fmt.Fprintln(os.Stderr, "final metrics snapshot:")
		if err := reg.Snapshot().WriteJSON(os.Stderr); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(os.Stderr)
		if *metricsHold > 0 {
			fmt.Fprintf(os.Stderr, "metrics: holding the endpoint open for %s\n", *metricsHold)
			time.Sleep(*metricsHold)
		}
	}
}

// runFleet drives N concurrent sensors against one server over real TCP
// loopback connections and reports per-sensor delivery alongside the pooled
// attacker view. Per-sensor failures degrade the run; only setup errors,
// full-fleet failure, or ctx's deadline abort it.
func runFleet(ctx context.Context, fcfg simulator.FleetConfig, dsName, encName string) {
	res, err := simulator.RunFleetContext(ctx, fcfg)
	if err != nil {
		if res == nil {
			log.Fatal(err)
		}
		// Partial result (cancellation or full-fleet failure): report what
		// arrived, then the error.
		defer log.Fatal(err)
	}
	fmt.Printf("fleet run: %s / %s, %d sensors, %d frames delivered, %d sensors failed\n",
		dsName, encName, fcfg.Sensors, res.Messages, res.Failed)
	for _, st := range res.Sensors {
		line := fmt.Sprintf("  sensor %3d: %d/%d frames, %d dial attempt(s), MAE %.4f",
			st.Sensor, st.Delivered, st.Assigned, st.DialAttempts, res.PerSensorMAE[st.Sensor])
		if e := st.Err(); e != "" {
			line += "  [" + e + "]"
		}
		fmt.Println(line)
	}
	for _, u := range res.Unattributed {
		fmt.Printf("  unattributed connection: %s\n", u)
	}
	printSizes(res.SizesByLabel, dsName)
}

func buildPolicy(name string, data *dataset.Dataset, rate float64, seed int64) (policy.Policy, error) {
	if name == "uniform" {
		return policy.NewUniform(rate), nil
	}
	if name == "random" {
		return policy.NewRandom(rate), nil
	}
	n := len(data.Sequences) / 3
	if n < 8 {
		n = len(data.Sequences)
	}
	var train [][][]float64
	for _, s := range data.Sequences[:n] {
		train = append(train, s.Values)
	}
	switch name {
	case "linear", "deviation":
		fit, err := policy.Fit(policy.AdaptiveKind(name), train, rate)
		if err != nil {
			return nil, err
		}
		fmt.Printf("fitted %s threshold %.4f (achieved rate %.2f)\n", name, fit.Threshold, fit.AchievedRate)
		return policy.NewAdaptive(policy.AdaptiveKind(name), fit.Threshold)
	case "skiprnn":
		cfg := policy.DefaultSkipRNNTrainConfig()
		cfg.Seed = seed
		model, err := policy.TrainSkipRNN(train, cfg)
		if err != nil {
			return nil, err
		}
		p, fit := model.FitBias(train, rate)
		fmt.Printf("trained skip RNN; bias %.3f (achieved rate %.2f)\n", fit.Threshold, fit.AchievedRate)
		return p, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func printSizes(byLabel map[int][]int, dsName string) {
	events := dataset.LabelNames(dsName)
	var labels []int
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	var flatLabels, flatSizes []int
	fmt.Println("attacker-observed message sizes by event:")
	for _, l := range labels {
		xs := make([]float64, len(byLabel[l]))
		for i, s := range byLabel[l] {
			xs[i] = float64(s)
			flatLabels = append(flatLabels, l)
			flatSizes = append(flatSizes, s)
		}
		name := fmt.Sprintf("label %d", l)
		if l < len(events) {
			name = events[l]
		}
		fmt.Printf("  %-14s mean %8.1f B  std %7.2f  n=%d\n", name, stats.Mean(xs), stats.StdDev(xs), len(xs))
	}
	fmt.Printf("NMI(size, event) = %.3f\n", stats.NMI(flatLabels, flatSizes))
}
