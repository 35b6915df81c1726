package projection

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixedpoint"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/reconstruct"
	"repro/internal/staging"
	"repro/internal/stats"
)

// Fleet geometry shared by the loopback tests.
const (
	testT = 20
	testD = 3
)

func testCodecConfig() core.Config {
	return core.Config{T: testT, D: testD, Format: fixedpoint.Format{Width: 16, NonFrac: 3}}
}

// truthWindow synthesizes the deterministic ground-truth window for a
// (sensor, frame) pair — the generative process both the harness's frame
// source and the Truth callback share.
func truthWindow(sensorID, index int) [][]float64 {
	w := make([][]float64, testT)
	for t := range w {
		w[t] = make([]float64, testD)
		for f := range w[t] {
			w[t][f] = 3 * math.Sin(float64(sensorID*31+index*7+t*3+f))
		}
	}
	return w
}

// frameLabel assigns each frame a binary event label.
func frameLabel(sensorID, index int) int {
	return (sensorID + index) % 2
}

// frameBatch subsamples the truth window; the collection count depends on
// the label, so the standard encoder's message sizes leak it — exactly
// what the live NMI monitor must measure.
func frameBatch(sensorID, index int) core.Batch {
	truth := truthWindow(sensorID, index)
	k := 5 + 4*frameLabel(sensorID, index)
	b := core.Batch{Indices: make([]int, k), Values: make([][]float64, k)}
	for i := 0; i < k; i++ {
		idx := i * (testT - 1) / (k - 1)
		b.Indices[i] = idx
		b.Values[i] = truth[idx]
	}
	return b
}

func testTruth(sensorID, index int) ([][]float64, int, bool) {
	return truthWindow(sensorID, index), frameLabel(sensorID, index), true
}

// payloadSource feeds pre-encoded frames to an ingest client.
type payloadSource struct {
	frames [][]byte
	next   int
}

func (s *payloadSource) Total() int            { return len(s.frames) }
func (s *payloadSource) Seek(resume int) error { s.next = resume; return nil }
func (s *payloadSource) Next(ctx context.Context) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	msg := s.frames[s.next]
	s.next++
	return msg, nil
}

// sinkSession accepts every frame.
type sinkSession struct{ total int }

func (s *sinkSession) Total() int                        { return s.total }
func (s *sinkSession) Frame(index int, msg []byte) error { return nil }
func (s *sinkSession) Close(err error)                   {}

// TestLoopbackFleetMatchesOffline is the pipeline's identity check: a real
// ingest fleet streams encoded batches through the tap, and the quiesced
// snapshot's figures must match the offline evaluation — the reconstruct
// accumulator and the slice-based entropy/NMI — computed from the very
// same payloads.
func TestLoopbackFleetMatchesOffline(t *testing.T) {
	const sensors, frames = 6, 10
	codec, err := core.NewStandard(testCodecConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{
		T: testT, D: testD,
		Decode: codec,
		Truth:  testTruth,
		Window: 8,
	})

	srv, err := ingest.NewServer(ingest.ServerConfig{
		Handler: ingest.HandlerFuncs{
			OpenFunc: func(sensorID, delivered int) (ingest.Session, error) {
				return &sinkSession{total: frames}, nil
			},
		},
		IOTimeout: 2 * time.Second,
		Stager:    eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	var wg sync.WaitGroup
	for id := 0; id < sensors; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			payloads := make([][]byte, frames)
			for i := range payloads {
				p, err := codec.Encode(frameBatch(id, i))
				if err != nil {
					t.Errorf("encode %d/%d: %v", id, i, err)
					return
				}
				payloads[i] = p
			}
			client := ingest.NewClient(ingest.ClientConfig{
				Addr: srv.Addr().String(), SensorID: id, IOTimeout: 2 * time.Second,
			})
			if _, err := client.Run(context.Background(), &payloadSource{frames: payloads}); err != nil {
				t.Errorf("sensor %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	<-serveErr
	eng.Close()
	snap := eng.Snapshot()

	// Offline pass over the same frames: decode what was sent, reconstruct,
	// and score — the ground this PR's acceptance criterion stands on.
	var acc reconstruct.Accumulator
	var labels, sizes []int
	detections, transitions := 0, 0
	lastLabel := map[int]int{}
	for id := 0; id < sensors; id++ {
		for i := 0; i < frames; i++ {
			payload, err := codec.Encode(frameBatch(id, i))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := codec.Decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			truth := truthWindow(id, i)
			recon, err := reconstruct.Linear(batch.Indices, batch.Values, testT, testD)
			if err != nil {
				t.Fatal(err)
			}
			mae, err := reconstruct.MAE(recon, truth)
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(mae, reconstruct.SequenceStdDev(truth))
			label := frameLabel(id, i)
			labels = append(labels, label)
			sizes = append(sizes, len(payload))
			if label > 0 {
				detections++
			}
			if last, ok := lastLabel[id]; ok && last != label {
				transitions++
			}
			lastLabel[id] = label
		}
	}

	if snap.MAE.Count != int64(acc.Count()) {
		t.Fatalf("scored %d records, offline %d", snap.MAE.Count, acc.Count())
	}
	if d := math.Abs(snap.MAE.MeanMAE - acc.MAE()); d > 1e-9 {
		t.Errorf("mean MAE %v vs offline %v (|d|=%g)", snap.MAE.MeanMAE, acc.MAE(), d)
	}
	if d := math.Abs(snap.MAE.WeightedMAE - acc.WeightedMAE()); d > 1e-9 {
		t.Errorf("weighted MAE %v vs offline %v (|d|=%g)", snap.MAE.WeightedMAE, acc.WeightedMAE(), d)
	}
	if snap.MAE.RollingMAE <= 0 {
		t.Error("rolling MAE empty after a full fleet")
	}
	if snap.Privacy.Records != int64(len(sizes)) {
		t.Fatalf("privacy saw %d records, want %d", snap.Privacy.Records, len(sizes))
	}
	// The count tables hold the same pairs, and stats sums every table in
	// rank order, so the live figures equal the offline ones bit for bit.
	if got, want := snap.Privacy.NMI, stats.NMI(labels, sizes); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("live NMI %v vs offline %v", got, want)
	}
	if got, want := snap.Privacy.SizeEntropyBits, stats.Entropy(sizes); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("live size entropy %v vs offline %v", got, want)
	}
	if snap.Events.LabelDetections != int64(detections) || snap.Events.LabelTransitions != int64(transitions) {
		t.Errorf("events = %+v, want %d detections %d transitions", snap.Events, detections, transitions)
	}
	if snap.DecodeErrors != 0 {
		t.Errorf("%d decode errors", snap.DecodeErrors)
	}
	if snap.CoveragePct != 100 {
		t.Errorf("coverage = %v%%", snap.CoveragePct)
	}
	if len(snap.Privacy.PerSensor) != sensors {
		t.Errorf("arrival stats for %d sensors, want %d", len(snap.Privacy.PerSensor), sensors)
	}
}

// feedRecord builds a directly-fed staged record for the restart tests.
func feedRecord(sensorID, index int) staging.Record {
	truth := truthWindow(sensorID, index)
	b := frameBatch(sensorID, index)
	return staging.Record{
		Index:        index,
		WireBytes:    40 + 10*frameLabel(sensorID, index),
		Label:        frameLabel(sensorID, index),
		RecvUnixNano: int64(1e9 + sensorID*1e6 + index*1000),
		Indices:      b.Indices,
		Values:       b.Values,
		Truth:        truth,
	}
}

func feedAll(e *Engine, sensors, from, to int) {
	for id := 0; id < sensors; id++ {
		for i := from; i < to; i++ {
			e.Feed(id, feedRecord(id, i))
		}
	}
}

func snapshotsEquivalent(t *testing.T, got, want Snapshot) {
	t.Helper()
	if got.StagedRecords != want.StagedRecords {
		t.Errorf("staged %d vs %d", got.StagedRecords, want.StagedRecords)
	}
	if got.MAE.Count != want.MAE.Count {
		t.Errorf("mae count %d vs %d", got.MAE.Count, want.MAE.Count)
	}
	for name, pair := range map[string][2]float64{
		"mean_mae":     {got.MAE.MeanMAE, want.MAE.MeanMAE},
		"weighted_mae": {got.MAE.WeightedMAE, want.MAE.WeightedMAE},
		"rolling_mae":  {got.MAE.RollingMAE, want.MAE.RollingMAE},
		"nmi":          {got.Privacy.NMI, want.Privacy.NMI},
		"size_entropy": {got.Privacy.SizeEntropyBits, want.Privacy.SizeEntropyBits},
	} {
		if d := math.Abs(pair[0] - pair[1]); d > 1e-9 {
			t.Errorf("%s: %v vs %v", name, pair[0], pair[1])
		}
	}
	if got.Events != want.Events {
		t.Errorf("events %+v vs %+v", got.Events, want.Events)
	}
	if got.Privacy.Records != want.Privacy.Records {
		t.Errorf("privacy records %d vs %d", got.Privacy.Records, want.Privacy.Records)
	}
}

// TestCheckpointRestartEquivalence runs half a fleet, checkpoints
// mid-stream (through a JSON round-trip, as a crash-restart would see it),
// restores, feeds the remainder, and requires the restored engine's
// quiesced snapshot to match an uninterrupted run's.
func TestCheckpointRestartEquivalence(t *testing.T) {
	const sensors, frames, half = 3, 40, 17
	cfg := Config{T: testT, D: testD, Window: 8, Now: func() int64 { return 5e9 }}

	full := New(cfg)
	feedAll(full, sensors, 0, frames)
	for id := 0; id < sensors; id++ {
		full.CompleteSensor(id)
	}
	full.Close()
	want := full.Snapshot()

	first := New(cfg)
	feedAll(first, sensors, 0, half)
	cp := first.Checkpoint()
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var restoredCp Checkpoint
	if err := json.Unmarshal(data, &restoredCp); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := Restore(cfg, restoredCp)
	for id := 0; id < sensors; id++ {
		resume := restoredCp.Sensors[id].Resume
		for i := resume; i < frames; i++ {
			second.Feed(id, feedRecord(id, i))
		}
		second.CompleteSensor(id)
	}
	second.Close()
	snapshotsEquivalent(t, second.Snapshot(), want)
}

// TestImportedCursorDedupesReplays pins the tap's dedupe point to the
// staged log's head: a sensor whose engine was restored at Resume 5 and is
// then re-admitted from 0 replays frames the restored log already covers,
// and none of them may stage a second time.
func TestImportedCursorDedupesReplays(t *testing.T) {
	e := Restore(Config{T: testT, D: testD, Now: func() int64 { return 5e9 }},
		Checkpoint{Sensors: map[int]SensorCheckpoint{1: {Resume: 5, Complete: true}}})
	e.Admit(1, 0, 5)
	for i := 0; i < 5; i++ {
		e.StageFrame(1, i, []byte{byte(i)})
	}
	e.Close()
	if got := e.Snapshot().StagedRecords; got != 5 {
		t.Fatalf("staged %d records after replaying the restored prefix, want the restored 5", got)
	}
	if head := e.stage.Log(1).Head(); head != 5 {
		t.Errorf("log head = %d after replays, want 5", head)
	}
}

// TestWatermarkBoundsPrivacyProjection pins the monitor's visibility rule:
// with one sensor incomplete at two records, the privacy projection sees
// only two records per sensor, while the per-sensor projections see all.
func TestWatermarkBoundsPrivacyProjection(t *testing.T) {
	e := New(Config{T: testT, D: testD, Now: func() int64 { return 5e9 }})
	for i := 0; i < 5; i++ {
		e.Feed(1, feedRecord(1, i))
	}
	e.CompleteSensor(1)
	for i := 0; i < 2; i++ {
		e.Feed(2, feedRecord(2, i))
	}
	// Sensor 2 never completes: the watermark stays at 2.
	e.Close()
	snap := e.Snapshot()
	if snap.Watermark != 2 {
		t.Fatalf("watermark = %d, want 2", snap.Watermark)
	}
	if snap.Privacy.Records != 4 {
		t.Errorf("privacy records = %d, want 4 (2 visible per sensor)", snap.Privacy.Records)
	}
	if snap.Events.Records != 7 {
		t.Errorf("event records = %d, want 7 (per-sensor workers read to head)", snap.Events.Records)
	}
	if snap.MAE.Count != 7 {
		t.Errorf("mae count = %d, want 7", snap.MAE.Count)
	}
}

// TestWatermarkBoundsPrivacyOnceSensorSeen is the same visibility rule
// with the incomplete sensor staged first. The stage has seen sensor 2
// before any record of sensor 1 arrives, so the watermark bounds the
// privacy worker at every instant and the result cannot depend on when
// the worker runs.
func TestWatermarkBoundsPrivacyOnceSensorSeen(t *testing.T) {
	e := New(Config{T: testT, D: testD, Now: func() int64 { return 5e9 }})
	for i := 0; i < 2; i++ {
		e.Feed(2, feedRecord(2, i))
	}
	for i := 0; i < 5; i++ {
		e.Feed(1, feedRecord(1, i))
	}
	e.CompleteSensor(1)
	e.Close()
	snap := e.Snapshot()
	if snap.Watermark != 2 {
		t.Fatalf("watermark = %d, want 2", snap.Watermark)
	}
	if snap.Privacy.Records != 4 {
		t.Errorf("privacy records = %d, want 4 (2 visible per sensor)", snap.Privacy.Records)
	}
	if snap.Events.Records != 7 || snap.MAE.Count != 7 {
		t.Errorf("event records = %d, mae count = %d, want 7 each", snap.Events.Records, snap.MAE.Count)
	}
}

// TestSnapshotEndpoint mounts the engine's handler next to /metrics and
// reads a live snapshot over HTTP.
func TestSnapshotEndpoint(t *testing.T) {
	e := New(Config{T: testT, D: testD, Now: func() int64 { return 5e9 }})
	feedAll(e, 2, 0, 4)
	e.CompleteSensor(0)
	e.CompleteSensor(1)
	e.Close()

	reg := metrics.NewRegistry()
	srv, err := reg.ListenAndServeWith("127.0.0.1:0", map[string]http.Handler{
		"/projections": e.Handler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/projections"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if path == "/projections" {
			var snap Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Fatalf("decode snapshot: %v", err)
			}
			if snap.StagedRecords != 8 || snap.MAE.Count != 8 {
				t.Errorf("HTTP snapshot = staged %d, mae count %d", snap.StagedRecords, snap.MAE.Count)
			}
		}
		resp.Body.Close()
	}
}

// TestConcurrentFeedSnapshotCheckpoint exercises the engine's concurrency
// contract under -race: parallel feeders, snapshots, and checkpoints.
func TestConcurrentFeedSnapshotCheckpoint(t *testing.T) {
	e := New(Config{T: testT, D: testD, Now: func() int64 { return 5e9 }})
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.Feed(id, feedRecord(id, i))
			}
			e.CompleteSensor(id)
		}(id)
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Snapshot()
			_ = e.Checkpoint()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	e.Close()
	snap := e.Snapshot()
	if snap.StagedRecords != 800 || snap.MAE.Count != 800 {
		t.Fatalf("staged %d, scored %d, want 800/800", snap.StagedRecords, snap.MAE.Count)
	}
}
