package simulator

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/reconstruct"
	"repro/internal/seccomm"
)

// fixedPolicy collects the same rows of every sequence and allocates
// nothing, so the counts below measure the pipeline, not the policy.
type fixedPolicy []int

func (p fixedPolicy) Sample([][]float64, *rand.Rand) []int { return p }

// TestFleetFrameAllocs: the fleet reuses its payload, mark, row and
// decoded-batch scratch from frame to frame. Paced or not, one
// fleetFrameSource.Next allocates only what its Seal call allocates, and
// one fleetSession.Frame only what Open on the same message allocates; a
// paced sensor's cover frame costs one Seal too.
func TestFleetFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, paced := range []bool{false, true} {
		name := "unpaced"
		if paced {
			name = "paced"
		}
		t.Run(name, func(t *testing.T) { testFleetFrameAllocs(t, paced) })
	}
}

func testFleetFrameAllocs(t *testing.T, paced bool) {
	cfg := fleetConfig(t, EncAGE, 1)
	if paced {
		cfg.Pacing = FleetPacing{Mode: PaceConstant, Interval: time.Millisecond}
	}
	var rows fixedPolicy
	for i := 0; i < cfg.Base.Dataset.Meta.SeqLen; i += 3 {
		rows = append(rows, i)
	}
	cfg.Base.Policy = rows
	seqIdx := make([]int, len(cfg.Base.Dataset.Sequences))
	for i := range seqIdx {
		seqIdx[i] = i
	}
	sen, err := newSensor(cfg.Base, 0, paced)
	if err != nil {
		t.Fatal(err)
	}
	src := &fleetFrameSource{cfg: cfg, sensorID: 0, seqIdx: seqIdx, sen: sen}
	if err := src.Seek(0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var msg []byte
	i := 0
	next := testing.AllocsPerRun(100, func() {
		src.next = i % len(seqIdx)
		i++
		if msg, err = src.Next(ctx); err != nil {
			t.Fatal(err)
		}
	})
	sealer, err := seccomm.NewSealer(cfg.Base.Cipher, fleetKey(0, cfg.Base.Cipher))
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, len(sen.payload))
	seal := testing.AllocsPerRun(100, func() {
		if _, err := sealer.Seal(plain); err != nil {
			t.Fatal(err)
		}
	})
	if next != seal {
		t.Errorf("fleetFrameSource.Next: %v allocs/frame, Seal alone %v", next, seal)
	}
	if paced {
		dummy := testing.AllocsPerRun(100, func() {
			if _, err := sen.dummy(); err != nil {
				t.Fatal(err)
			}
		})
		if dummy != seal {
			t.Errorf("sensor.dummy: %v allocs/frame, Seal alone %v", dummy, seal)
		}
	}

	var mu sync.Mutex
	h := &fleetHandler{
		cfg: cfg, parts: [][]int{seqIdx},
		res: &FleetResult{SizesByLabel: map[int][]int{}, Sensors: make([]FleetSensorStatus, 1)},
		mu:  &mu, accs: make([]reconstruct.Accumulator, 1),
	}
	sess, err := h.Open(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := testing.AllocsPerRun(100, func() {
		if err := sess.Frame(0, msg); err != nil {
			t.Fatal(err)
		}
	})
	opener, err := seccomm.NewSealer(cfg.Base.Cipher, fleetKey(0, cfg.Base.Cipher))
	if err != nil {
		t.Fatal(err)
	}
	open := testing.AllocsPerRun(100, func() {
		if _, err := opener.Open(msg); err != nil {
			t.Fatal(err)
		}
	})
	if frame != open {
		t.Errorf("fleetSession.Frame: %v allocs/frame, Open alone %v", frame, open)
	}
}
