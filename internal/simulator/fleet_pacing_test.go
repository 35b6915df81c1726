package simulator

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metrics"
)

// countingTap is a minimal FleetPacing.Observer: it counts wire frame
// sightings per label, standing in for the attack package's TimingTap.
type countingTap struct {
	mu      sync.Mutex
	byLabel map[int]int
	total   int
}

func (c *countingTap) observe(sensorID, label int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byLabel == nil {
		c.byLabel = map[int]int{}
	}
	c.byLabel[label]++
	c.total++
}

func pacedFleetConfig(t *testing.T, sensors int, pacing FleetPacing) FleetConfig {
	cfg := fleetConfig(t, EncAGE, sensors)
	cfg.Pacing = pacing
	return cfg
}

func TestFleetPacingDeliveryIdentity(t *testing.T) {
	// The pacer may change only *when* frames move and how much droppable
	// cover rides along: reconstruction error, delivered counts, and the
	// per-label delivered-frame tallies must match the unpaced run exactly,
	// and the wire sizes may differ only by the 1-byte in-payload marker.
	const sensors = 3
	base, err := runBounded(t, pacedFleetConfig(t, sensors, FleetPacing{}))
	if err != nil {
		t.Fatal(err)
	}

	gen := FleetPacing{BaseGap: 200 * time.Microsecond, PerSample: 5 * time.Microsecond}
	cases := []struct {
		name        string
		pacing      FleetPacing
		wantDummies bool
	}{
		{"live", FleetPacing{Mode: ingest.PaceLive, BaseGap: gen.BaseGap, PerSample: gen.PerSample}, false},
		{"constant", FleetPacing{
			Mode: ingest.PaceConstant, Interval: 300 * time.Microsecond,
			BaseGap: gen.BaseGap, PerSample: gen.PerSample,
		}, true},
		{"jitter", FleetPacing{
			Mode: ingest.PaceJitter, Interval: 300 * time.Microsecond, JitterFrac: 0.4,
			BaseGap: gen.BaseGap, PerSample: gen.PerSample,
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tap := &countingTap{}
			tc.pacing.Observer = tap.observe
			res, err := runBounded(t, pacedFleetConfig(t, sensors, tc.pacing))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d sensors failed under pacing", res.Failed)
			}
			if res.Messages != base.Messages {
				t.Errorf("Messages = %d, want %d", res.Messages, base.Messages)
			}
			for s := range base.PerSensorMAE {
				if res.PerSensorMAE[s] != base.PerSensorMAE[s] {
					t.Errorf("sensor %d MAE = %v, unpaced run computed %v (delivered data must be identical)",
						s, res.PerSensorMAE[s], base.PerSensorMAE[s])
				}
			}
			for label, want := range base.SizesByLabel {
				got := res.SizesByLabel[label]
				if len(got) != len(want) {
					t.Errorf("label %d delivered %d frames, want %d", label, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i]+1 { // the sealed in-payload marker byte
						t.Errorf("label %d frame %d wire size = %d, want %d+1", label, i, got[i], want[i])
						break
					}
				}
			}
			if tc.wantDummies {
				if res.DummyFrames == 0 {
					t.Error("paced run sent no cover traffic")
				}
				if res.AoIMicrosTotal <= 0 || res.MeanAoIMicros() <= 0 {
					t.Errorf("AoI unaccounted: total %d, mean %v", res.AoIMicrosTotal, res.MeanAoIMicros())
				}
				if res.AoIMicrosMax < int64(res.MeanAoIMicros()) {
					t.Errorf("AoI max %d below mean %v", res.AoIMicrosMax, res.MeanAoIMicros())
				}
			} else if res.DummyFrames != 0 {
				t.Errorf("live mode sent %d dummies", res.DummyFrames)
			}
			if res.RealFramesSent != base.Messages {
				t.Errorf("RealFramesSent = %d, want %d", res.RealFramesSent, base.Messages)
			}
			// The tap saw every wire frame: all real ones plus all dummies.
			if want := base.Messages + res.DummyFrames; tap.total != want {
				t.Errorf("tap observed %d frames, want %d (real %d + dummies %d)",
					tap.total, want, base.Messages, res.DummyFrames)
			}
			// Every label delivered in the baseline was also observed.
			for label, want := range base.SizesByLabel {
				if tap.byLabel[label] < len(want) {
					t.Errorf("tap observed %d frames for label %d, want at least %d",
						tap.byLabel[label], label, len(want))
				}
			}
		})
	}
}

// TestFleetPacedDummiesMatchRealSize: under constant and jittered release
// every frame on the wire, real or cover, has one size for each fixed-size
// encoder. A dummy sized from the configured target rather than the
// encoder's own payload length (AGE's reduced target, Padded's full batch)
// is told apart from real frames by its size alone.
func TestFleetPacedDummiesMatchRealSize(t *testing.T) {
	for _, kind := range core.Kinds() {
		if !kind.FixedSize() {
			continue
		}
		for _, mode := range []ingest.PaceMode{PaceConstant, PaceJitter} {
			t.Run(fmt.Sprintf("%s/%v", kind, mode), func(t *testing.T) {
				cfg := fleetConfig(t, kind, 3)
				cfg.Pacing = FleetPacing{
					Mode: mode, Interval: 300 * time.Microsecond, JitterFrac: 0.4,
					BaseGap: 200 * time.Microsecond, PerSample: 5 * time.Microsecond,
				}
				reg := metrics.NewRegistry()
				cfg.Base.Metrics = reg
				res, err := runBounded(t, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.DummyFrames == 0 {
					t.Fatal("paced run sent no cover traffic; the size check is vacuous")
				}
				fb := reg.Snapshot().Histograms["ingest.frame_bytes"]
				if n := int64(res.Messages + res.DummyFrames); fb.Count != n || fb.Sum != fb.Max*n {
					t.Errorf("ingest.frame_bytes = count %d, sum %d, max %d; want %d frames (%d real, %d dummies) of one size",
						fb.Count, fb.Sum, fb.Max, n, res.Messages, res.DummyFrames)
				}
			})
		}
	}
}

func TestFleetPacingOffIsByteIdenticalWithObserver(t *testing.T) {
	// An Observer alone (no pacing mode) must not perturb results: it is
	// observation-only, like the metrics registry.
	const sensors = 2
	base, err := runBounded(t, pacedFleetConfig(t, sensors, FleetPacing{}))
	if err != nil {
		t.Fatal(err)
	}
	tap := &countingTap{}
	res, err := runBounded(t, pacedFleetConfig(t, sensors, FleetPacing{Observer: tap.observe}))
	if err != nil {
		t.Fatal(err)
	}
	for s := range base.PerSensorMAE {
		if res.PerSensorMAE[s] != base.PerSensorMAE[s] {
			t.Errorf("sensor %d MAE diverged with observer attached", s)
		}
	}
	for label, want := range base.SizesByLabel {
		got := res.SizesByLabel[label]
		if len(got) != len(want) {
			t.Fatalf("label %d frame count diverged", label)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("label %d frame %d size diverged with observer attached", label, i)
			}
		}
	}
	if tap.total != base.Messages {
		t.Errorf("tap observed %d frames, want %d", tap.total, base.Messages)
	}
}
