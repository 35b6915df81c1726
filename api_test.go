// Black-box tests of the public API facade: everything a downstream user
// touches must work through the root package alone.
package age_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	age "repro"
	"repro/internal/bitio"
	"repro/internal/chacha"
)

func TestFacadeEndToEnd(t *testing.T) {
	data, err := age.LoadDataset("epilepsy", age.DatasetOptions{Seed: 1, MaxSequences: 16})
	if err != nil {
		t.Fatal(err)
	}
	meta := data.Meta
	var train [][][]float64
	for _, s := range data.Sequences {
		train = append(train, s.Values)
	}
	fit, err := age.FitPolicy(age.LinearPolicy, train, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	pol := age.NewLinearPolicy(fit.Threshold)

	target := age.ReduceTarget(age.TargetBytesForRate(0.7, meta.SeqLen, meta.NumFeatures, meta.Format.Width))
	enc, err := age.NewAGEEncoder(age.EncoderConfig{
		T: meta.SeqLen, D: meta.NumFeatures, Format: meta.Format, TargetBytes: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := age.NewSealer(age.ChaCha20, make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	seq := data.Sequences[0]
	idx := pol.Sample(seq.Values, rng)
	vals := make([][]float64, len(idx))
	for i, ti := range idx {
		vals[i] = seq.Values[ti]
	}
	payload, err := enc.Encode(age.Batch{Indices: idx, Values: vals})
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != target {
		t.Fatalf("payload %dB, want %d", len(payload), target)
	}
	msg, err := sealer.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := sealer.Open(msg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := enc.Decode(opened)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := age.Reconstruct(batch.Indices, batch.Values, meta.SeqLen, meta.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	mae, err := age.MAE(recon, seq.Values)
	if err != nil {
		t.Fatal(err)
	}
	if mae <= 0 || mae > 1 {
		t.Errorf("MAE = %g out of plausible range", mae)
	}
}

func TestFacadeSimulateAndAttack(t *testing.T) {
	data, err := age.LoadDataset("epilepsy", age.DatasetOptions{Seed: 2, MaxSequences: 32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := age.SimulateContext(context.Background(), age.SimulationConfig{
		Dataset: data,
		Policy:  age.NewUniformPolicy(0.5),
		Encoder: age.EncAGE,
		Cipher:  age.ChaCha20,
		Rate:    0.5,
		Model:   age.DefaultEnergyModel(),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var labels, sizes []int
	for l, ss := range res.SizesByLabel {
		for _, s := range ss {
			labels = append(labels, l)
			sizes = append(sizes, s)
		}
	}
	if nmi := age.NMI(labels, sizes); nmi != 0 {
		t.Errorf("facade AGE NMI = %g", nmi)
	}
	rng := rand.New(rand.NewSource(3))
	samples, err := age.BuildAttackSamples(res.SizesByLabel, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := age.RunAttack(samples, data.Meta.NumLabels, rng)
	if err != nil {
		t.Fatal(err)
	}
	if atk.MeanAccuracy > atk.Majority+0.05 {
		t.Errorf("attack on fixed sizes: %g above majority %g", atk.MeanAccuracy, atk.Majority)
	}
}

func TestFacadeDatasetNames(t *testing.T) {
	if got := len(age.DatasetNames()); got != 9 {
		t.Errorf("%d datasets", got)
	}
	if got := age.EventNames("epilepsy"); len(got) != 4 {
		t.Errorf("epilepsy events = %v", got)
	}
}

func TestFacadeCSV(t *testing.T) {
	in := "x,2,1,2,16,3\n1,0.25,-0.25\n"
	d, err := age.ReadDatasetCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sequences) != 1 || d.Sequences[0].Label != 1 {
		t.Fatalf("parsed %+v", d.Meta)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "x,2,1,2,16,3") {
		t.Errorf("round trip header: %q", buf.String())
	}
}

func TestFacadeRoundTargetToCipher(t *testing.T) {
	if age.RoundTargetToCipher(100, age.ChaCha20) != 100 {
		t.Error("stream target changed")
	}
	if got := age.RoundTargetToCipher(100, age.AES128); got%16 != 15 {
		t.Errorf("block target %d not block-filling", got)
	}
}

func TestFacadeSentinelErrors(t *testing.T) {
	format := age.Format{Width: 16, NonFrac: 3}
	goodCfg := age.EncoderConfig{
		T: 16, D: 1, Format: format,
		TargetBytes: age.TargetBytesForRate(0.5, 16, 1, format.Width),
	}

	if _, _, err := age.NewEncoder(age.EncoderKind("bogus"), goodCfg); !errors.Is(err, age.ErrUnknownEncoder) {
		t.Errorf("unknown kind error = %v, want ErrUnknownEncoder", err)
	}
	tiny := goodCfg
	tiny.TargetBytes = 1
	if _, _, err := age.NewEncoder(age.EncAGE, tiny); !errors.Is(err, age.ErrTargetTooSmall) {
		t.Errorf("tiny target error = %v, want ErrTargetTooSmall", err)
	}
	if _, err := age.NewSealer(age.ChaCha20, make([]byte, 5)); !errors.Is(err, age.ErrBadKey) {
		t.Errorf("short key error = %v, want ErrBadKey", err)
	}
	_, dec, err := age.NewEncoder(age.EncAGE, goodCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode([]byte{1, 2, 3}); !errors.Is(err, age.ErrPayloadLength) {
		t.Errorf("truncated payload error = %v, want ErrPayloadLength", err)
	}
	for _, kind := range age.EncoderKinds() {
		if _, _, err := age.NewEncoder(kind, goodCfg); err != nil {
			t.Errorf("NewEncoder(%s) failed: %v", kind, err)
		}
	}
}

// TestSentinelMatchThroughWraps pins the errors.Is contract at every site the
// sentinelerr analyzer flagged for direct ==/!= comparison: each sentinel must
// keep matching after a fmt.Errorf %w wrap layer, which is exactly what the
// removed equality tests silently broke.
func TestSentinelMatchThroughWraps(t *testing.T) {
	cases := []struct {
		name     string
		sentinel error
	}{
		{"age.ErrServerClosed (example_test.go)", age.ErrServerClosed},
		{"chacha.ErrAuthFailed (aead_test.go)", chacha.ErrAuthFailed},
		{"bitio.ErrShortBuffer (bitio_test.go)", bitio.ErrShortBuffer},
		{"io.EOF (dataset/csv.go)", io.EOF},
	}
	for _, c := range cases {
		wrapped := fmt.Errorf("outer layer: %w", c.sentinel)
		if !errors.Is(wrapped, c.sentinel) {
			t.Errorf("%s: errors.Is does not match through a wrap", c.name)
		}
		if wrapped == c.sentinel {
			t.Errorf("%s: wrap layer missing — direct equality would have kept working", c.name)
		}
	}
}

func TestFacadeSimulateContext(t *testing.T) {
	data, err := age.LoadDataset("epilepsy", age.DatasetOptions{Seed: 6, MaxSequences: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := age.SimulationConfig{
		Dataset: data,
		Policy:  age.NewUniformPolicy(0.5),
		Encoder: age.EncAGE,
		Cipher:  age.ChaCha20,
		Rate:    0.5,
		Model:   age.DefaultEnergyModel(),
		Seed:    1,
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := age.SimulateContext(cancelled, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Seqs) != 0 {
		t.Errorf("pre-cancelled run folded %v sequences", res)
	}
}

func TestFacadeSimulateOverSocketContext(t *testing.T) {
	data, err := age.LoadDataset("epilepsy", age.DatasetOptions{Seed: 7, MaxSequences: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := age.SimulationConfig{
		Dataset: data,
		Policy:  age.NewUniformPolicy(0.5),
		Encoder: age.EncAGE,
		Cipher:  age.ChaCha20,
		Rate:    0.5,
		Model:   age.DefaultEnergyModel(),
		Seed:    1,
	}
	socket := age.FleetConfig{Base: cfg, Sensors: 1}
	res, err := age.SimulateFleetContext(context.Background(), socket)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSensorMAE[0] <= 0 {
		t.Errorf("socket MAE = %g", res.PerSensorMAE[0])
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := age.SimulateFleetContext(cancelled, socket); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled socket run error = %v, want context.Canceled", err)
	}
}

func TestFacadeServerLifecycle(t *testing.T) {
	srv, err := age.NewServer(age.ServerConfig{
		Handler: age.IngestHandlerFuncs{
			OpenFunc: func(sensorID, delivered int) (age.IngestSession, error) {
				return nil, errors.New("no sessions in this test")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, age.ErrServerClosed) {
		t.Errorf("Serve after Close = %v, want ErrServerClosed", err)
	}
	if err := srv.Listen("127.0.0.1:0"); !errors.Is(err, age.ErrServerClosed) {
		t.Errorf("Listen after Close = %v, want ErrServerClosed", err)
	}
}

func TestFacadeSkipRNN(t *testing.T) {
	data, err := age.LoadDataset("epilepsy", age.DatasetOptions{Seed: 4, MaxSequences: 12})
	if err != nil {
		t.Fatal(err)
	}
	var train [][][]float64
	for _, s := range data.Sequences {
		train = append(train, s.Values)
	}
	cfg := age.SkipRNNTrainConfig{Hidden: 4, Epochs: 1, GateEpochs: 1, Seed: 1}
	model, err := age.TrainSkipRNN(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, fit := model.FitBias(train, 0.6)
	if fit.AchievedRate <= 0 {
		t.Errorf("achieved rate %g", fit.AchievedRate)
	}
	rng := rand.New(rand.NewSource(5))
	if idx := p.Sample(train[0], rng); len(idx) == 0 {
		t.Error("skip RNN collected nothing")
	}
}

// clusterCountSession counts frames per sensor through the facade's cluster.
type clusterCountSession struct {
	total  int
	frames chan<- int
}

func (s *clusterCountSession) Total() int                        { return s.total }
func (s *clusterCountSession) Frame(index int, msg []byte) error { s.frames <- index; return nil }
func (s *clusterCountSession) Close(err error)                   {}

type clusterFrames struct {
	frames [][]byte
	next   int
}

func (s *clusterFrames) Total() int            { return len(s.frames) }
func (s *clusterFrames) Seek(resume int) error { s.next = resume; return nil }
func (s *clusterFrames) Next(ctx context.Context) ([]byte, error) {
	f := s.frames[s.next]
	s.next++
	return f, nil
}

// TestFacadeClusterLifecycle drives the cluster surface end to end through
// the root package alone: build, start, stream sensors through the gateway,
// snapshot routing state, drain, and observe the closed sentinel.
func TestFacadeClusterLifecycle(t *testing.T) {
	received := make(chan int, 64)
	cl, err := age.NewCluster(age.ClusterConfig{
		Nodes: 3,
		Node: age.ClusterNodeSpec{Server: age.ServerConfig{
			Handler: age.IngestHandlerFuncs{
				OpenFunc: func(sensorID, delivered int) (age.IngestSession, error) {
					return &clusterCountSession{total: 4, frames: received}, nil
				},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	const sensors = 6
	for id := 0; id < sensors; id++ {
		client := age.NewClient(age.ClientConfig{Addr: cl.Addr().String(), SensorID: id})
		frames := [][]byte{[]byte("w"), []byte("x"), []byte("y"), []byte("z")}
		if _, err := client.Run(context.Background(), &clusterFrames{frames: frames}); err != nil {
			t.Fatalf("sensor %d: %v", id, err)
		}
	}
	if got := len(received); got != sensors*4 {
		t.Fatalf("cluster delivered %d frames, want %d", got, sensors*4)
	}

	st := cl.Stats()
	if st.LocatorSize != sensors {
		t.Errorf("locator size = %d, want %d", st.LocatorSize, sensors)
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("%d nodes, want 3", len(st.Nodes))
	}
	for _, n := range st.Nodes {
		if n.State != "live" {
			t.Errorf("node %d state %q, want live", n.ID, n.State)
		}
	}

	if err := cl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start("127.0.0.1:0"); !errors.Is(err, age.ErrClusterClosed) {
		t.Errorf("Start after Drain = %v, want ErrClusterClosed", err)
	}
}
