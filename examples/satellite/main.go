// Command satellite models the paper's nanosatellite scenario (§3.3): a
// remote-sensing node classifies land cover from multispectral time series
// (the Tiselac workload) and downlinks AES-128-encrypted batches under tight
// energy budgets. It sweeps the budget grid and compares Uniform sampling,
// the Linear adaptive policy, the padding defense, and AGE on error, energy,
// and budget violations — the Figure 5 / Table 4 story on one workload.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	age "repro"
)

func main() {
	data, err := age.LoadDataset("tiselac", age.DatasetOptions{Seed: 21, MaxSequences: 80})
	if err != nil {
		log.Fatal(err)
	}
	var train [][][]float64
	for _, s := range data.Sequences[:32] {
		train = append(train, s.Values)
	}

	fmt.Println("satellite downlink: Tiselac land-cover, AES-128-CBC, 8 budgets")
	fmt.Printf("%-6s %-10s | %10s %12s %12s %10s\n",
		"budget", "policy", "MAE", "energy(mJ)", "budget(mJ)", "violations")
	for _, rate := range []float64{0.3, 0.5, 0.7, 0.9} {
		fit, err := age.FitPolicy(age.LinearPolicy, train, rate)
		if err != nil {
			log.Fatal(err)
		}
		cases := []struct {
			name    string
			policy  age.Policy
			encoder age.EncoderKind
		}{
			{"uniform", age.NewUniformPolicy(rate), age.EncStandard},
			{"linear", age.NewLinearPolicy(fit.Threshold), age.EncStandard},
			{"padded", age.NewLinearPolicy(fit.Threshold), age.EncPadded},
			{"age", age.NewLinearPolicy(fit.Threshold), age.EncAGE},
		}
		for _, c := range cases {
			res, err := age.SimulateContext(context.Background(), age.SimulationConfig{
				Dataset: data,
				Policy:  c.policy,
				Encoder: c.encoder,
				Cipher:  age.AES128,
				Rate:    rate,
				Model:   age.DefaultEnergyModel(),
				Seed:    3,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-6.0f%% %-10s | %10.3f %12.1f %12.1f %10d\n",
				rate*100, c.name, res.MAE, res.TotalEnergyMJ, res.BudgetMJ, res.Violations)
		}
	}

	fmt.Println("\nPadding blows the downlink budget and pays for it in error;")
	fmt.Println("AGE keeps adaptive sampling's accuracy inside every budget.")

	// Transport check: the same AGE pipeline over a real TCP loopback link.
	// A satellite pass is a short contact window, so every frame carries a
	// read/write deadline — a stalled link fails the pass instead of hanging
	// the ground station.
	fit, err := age.FitPolicy(age.LinearPolicy, train, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	sock, err := age.SimulateFleetContext(context.Background(), age.FleetConfig{
		Base: age.SimulationConfig{
			Dataset: data,
			Policy:  age.NewLinearPolicy(fit.Threshold),
			Encoder: age.EncAGE,
			Cipher:  age.AES128,
			Rate:    0.7,
			Model:   age.DefaultEnergyModel(),
			Seed:    3,
		},
		Sensors:   1,
		IOTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntransport check (TCP loopback, 2s frame deadline): AGE @ 70%% MAE %.3f\n", sock.PerSensorMAE[0])
}
