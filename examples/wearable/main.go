// Command wearable runs the paper's motivating deployment end to end: a
// battery-powered activity-recognition wearable (Activity workload,
// accelerometer + gyroscope) streams batched, ChaCha20-encrypted
// measurements to a server over a real TCP loopback socket. It runs the
// pipeline twice — Standard encoding and AGE — and prints what a passive
// eavesdropper learns from message sizes in each case.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	age "repro"
)

func main() {
	data, err := age.LoadDataset("activity", age.DatasetOptions{Seed: 9, MaxSequences: 60})
	if err != nil {
		log.Fatal(err)
	}
	var train [][][]float64
	for _, s := range data.Sequences[:24] {
		train = append(train, s.Values)
	}
	const rate = 0.7
	fit, err := age.FitPolicy(age.DeviationPolicy, train, rate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wearable: %d sequences, Deviation policy @ %.0f%% budget (threshold %.4f)\n\n",
		len(data.Sequences), rate*100, fit.Threshold)

	for _, enc := range []age.EncoderKind{age.EncStandard, age.EncAGE} {
		cfg := age.SimulationConfig{
			Dataset: data,
			Policy:  age.NewDeviationPolicy(fit.Threshold),
			Encoder: enc,
			Cipher:  age.ChaCha20,
			Rate:    rate,
			Model:   age.DefaultEnergyModel(),
			Seed:    1,
		}
		// Sensor goroutine -> TCP socket -> server goroutine: a one-sensor
		// fleet, every frame under a read/write deadline.
		res, err := age.SimulateFleetContext(context.Background(), age.FleetConfig{
			Base: cfg, Sensors: 1, IOTimeout: 5 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("[%s] server-side reconstruction MAE: %.4f\n", enc, res.PerSensorMAE[0])
		fmt.Printf("  eavesdropper's view (wire bytes per activity):\n")
		var labels, sizes []int
		for l := 0; l < data.Meta.NumLabels; l++ {
			ss := res.SizesByLabel[l]
			if len(ss) == 0 {
				continue
			}
			lo, hi := ss[0], ss[0]
			sum := 0
			for _, s := range ss {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
				sum += s
				labels = append(labels, l)
				sizes = append(sizes, s)
			}
			fmt.Printf("    activity %2d: mean %6.1f B  range [%d, %d]\n",
				l, float64(sum)/float64(len(ss)), lo, hi)
		}
		fmt.Printf("  NMI(size, activity) = %.3f\n\n", age.NMI(labels, sizes))
	}

	fmt.Println("Standard encoding gives each activity a size signature; AGE's")
	fmt.Println("constant wire size drives the mutual information to zero.")
}
