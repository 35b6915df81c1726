// Runnable examples for the facade's constructors. The ingest examples
// share two tiny in-memory implementations: captureSession (the server-side
// consumer) and sliceFrames (the client-side frame source).
package age_test

import (
	"context"
	"errors"
	"fmt"

	age "repro"
)

// captureSession is an IngestSession that forwards every received frame to
// a channel.
type captureSession struct {
	total  int
	frames chan<- []byte
}

func (s *captureSession) Total() int                        { return s.total }
func (s *captureSession) Frame(index int, msg []byte) error { s.frames <- msg; return nil }
func (s *captureSession) Close(err error)                   {}

// sliceFrames is a FrameSource over a fixed slice of pre-sealed frames.
type sliceFrames struct {
	frames [][]byte
	next   int
}

func (s *sliceFrames) Total() int            { return len(s.frames) }
func (s *sliceFrames) Seek(resume int) error { s.next = resume; return nil }
func (s *sliceFrames) Next(ctx context.Context) ([]byte, error) {
	f := s.frames[s.next]
	s.next++
	return f, nil
}

func ExampleNewEncoder() {
	// One factory covers all six variants; swap age.EncAGE for
	// age.EncStandard, age.EncPadded, or an ablation kind to compare.
	meta := age.Format{Width: 16, NonFrac: 3}
	target := age.TargetBytesForRate(0.5, 16, 1, meta.Width)
	enc, dec, err := age.NewEncoder(age.EncAGE, age.EncoderConfig{
		T: 16, D: 1, Format: meta, TargetBytes: target,
	})
	if err != nil {
		panic(err)
	}
	batch := age.Batch{
		Indices: []int{0, 5, 10},
		Values:  [][]float64{{0.5}, {-1.25}, {2}},
	}
	payload, err := enc.Encode(batch)
	if err != nil {
		panic(err)
	}
	decoded, err := dec.Decode(payload)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(payload) == target, decoded.Indices)
	// Output: true [0 5 10]
}

func ExampleNewServer() {
	// The server hands every accepted sensor connection to the handler,
	// which opens a session; Drain completes in-flight sessions before
	// Serve returns ErrServerClosed.
	received := make(chan []byte, 3)
	srv, err := age.NewServer(age.ServerConfig{
		Handler: age.IngestHandlerFuncs{
			OpenFunc: func(sensorID, delivered int) (age.IngestSession, error) {
				return &captureSession{total: 3, frames: received}, nil
			},
		},
	})
	if err != nil {
		panic(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	client := age.NewClient(age.ClientConfig{Addr: srv.Addr().String(), SensorID: 7})
	stats, err := client.Run(context.Background(), &sliceFrames{
		frames: [][]byte{[]byte("f0"), []byte("f1"), []byte("f2")},
	})
	if err != nil {
		panic(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println(stats.FramesSent, len(received), errors.Is(<-done, age.ErrServerClosed))
	// Output: 3 3 true
}

func ExampleNewClient() {
	// Frames are sealed before they enter the client, so the ingest layer
	// never sees plaintext; the server-side session opens them.
	key := make([]byte, 32)
	sealer, err := age.NewSealer(age.ChaCha20, key)
	if err != nil {
		panic(err)
	}
	opener, err := age.NewSealer(age.ChaCha20, key)
	if err != nil {
		panic(err)
	}

	sealed := make(chan []byte, 2)
	srv, err := age.NewServer(age.ServerConfig{
		Handler: age.IngestHandlerFuncs{
			OpenFunc: func(sensorID, delivered int) (age.IngestSession, error) {
				return &captureSession{total: 2, frames: sealed}, nil
			},
		},
	})
	if err != nil {
		panic(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	go srv.Serve()
	defer srv.Close()

	var frames [][]byte
	for _, text := range []string{"hello", "sensor"} {
		msg, err := sealer.Seal([]byte(text))
		if err != nil {
			panic(err)
		}
		frames = append(frames, msg)
	}
	client := age.NewClient(age.ClientConfig{Addr: srv.Addr().String(), SensorID: 3})
	if _, err := client.Run(context.Background(), &sliceFrames{frames: frames}); err != nil {
		panic(err)
	}
	for i := 0; i < 2; i++ {
		payload, err := opener.Open(<-sealed)
		if err != nil {
			panic(err)
		}
		fmt.Println(string(payload))
	}
	// Output:
	// hello
	// sensor
}

func ExampleNewCluster() {
	// Three ingest nodes behind one gateway address: sensors speak the
	// ordinary client protocol and the gateway routes each one to a node by
	// consistent hash, migrating session state if a later reconnect lands
	// on a different node.
	received := make(chan []byte, 8)
	cl, err := age.NewCluster(age.ClusterConfig{
		Nodes: 3,
		Node: age.ClusterNodeSpec{Server: age.ServerConfig{
			Handler: age.IngestHandlerFuncs{
				OpenFunc: func(sensorID, delivered int) (age.IngestSession, error) {
					return &captureSession{total: 2, frames: received}, nil
				},
			},
		}},
	})
	if err != nil {
		panic(err)
	}
	if err := cl.Start("127.0.0.1:0"); err != nil {
		panic(err)
	}

	for id := 1; id <= 4; id++ {
		client := age.NewClient(age.ClientConfig{Addr: cl.Addr().String(), SensorID: id})
		if _, err := client.Run(context.Background(), &sliceFrames{
			frames: [][]byte{[]byte("a"), []byte("b")},
		}); err != nil {
			panic(err)
		}
	}

	stats := cl.Stats()
	if err := cl.Drain(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println(len(received), stats.LocatorSize, len(stats.Nodes))
	// Output: 8 4 3
}
