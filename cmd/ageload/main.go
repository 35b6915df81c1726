// Command ageload drives a synthetic sensor fleet against the ingest server
// to measure sustained throughput and latency under high concurrency. Every
// sensor is a real ingest.Client on its own TCP connection streaming
// fixed-size frames; the server runs the production shard/queue/backpressure
// path, so overload shows up as typed soft rejects (and bounded memory)
// rather than goroutine pileups.
//
// With -nodes > 1 the same fleet drives a gateway-fronted ingest cluster
// (internal/cluster): sensors connect to one address, the gateway routes by
// consistent hash with session affinity, and -kill-node proves the
// migration/resume path by killing a node mid-run while -verify checks every
// delivered stream byte-for-byte.
//
// Both paths share one client fan-out, drain and report, and take -sensors,
// -frames, -frame-bytes, -shards, -workers, -queue, -write-batch,
// -io-timeout, -reject-attempts, -reconnect-attempts, -run-timeout and -out.
// The rest belong to one path, and the other refuses them rather than
// ignoring them:
//
//   - single node only: -encode age|standard, -pace (with -pace-interval,
//     -pace-jitter, -pace-gen-gap) and -project (with -project-window,
//     -project-addr);
//   - cluster only: -conns, -burst, -verify and -kill-node (with
//     -kill-at-frac).
//
// Usage:
//
//	ageload -sensors 1000 -frames 20 -frame-bytes 64 -out BENCH_ingest.json
//	ageload -sensors 2000 -shards 8 -workers 32 -queue 64
//	ageload -nodes 3 -sensors 50000 -conns 1000 -burst 5 -kill-node 1 -verify
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fixedpoint"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/projection"
)

// loadSession discards frames, counting them. One exists per accepted
// connection; the shared counters aggregate across the whole run. When the
// fleet is paced, payloads carry the in-payload real/dummy marker: the
// session unwraps it and drops cover traffic the way a production handler
// does after unsealing.
type loadSession struct {
	total    int
	paced    bool
	sensorID int
	ver      *verifier
	got      *tally
}

func (s *loadSession) Total() int { return s.total }

func (s *loadSession) Frame(index int, msg []byte) error {
	if s.paced {
		data, dummy, err := ingest.Unmark(msg)
		if err != nil {
			return err
		}
		if dummy {
			return ingest.ErrDummyFrame
		}
		msg = data
	}
	if s.ver != nil {
		s.ver.record(s.sensorID, index, msg)
	}
	s.got.frames.Add(1)
	s.got.bytes.Add(int64(len(msg)))
	return nil
}

func (s *loadSession) Close(err error) {}

// verifier checks delivered frames byte-for-byte against the generator and
// tracks which (sensor, frame) pairs have arrived at least once. Frame
// content is a pure function of (sensor, index) — the genSource contract —
// so no per-frame storage is needed: a bitset of seen pairs plus content
// comparison covers loss, corruption, and (after a node kill resets a
// session) idempotent re-delivery, at any fleet size.
type verifier struct {
	frames     int
	frameBytes int
	words      int // per-sensor bitset words
	locks      []sync.Mutex
	seen       [][]uint64
	mismatched atomic.Int64
	duplicates atomic.Int64
}

const verifierShards = 64

func newVerifier(sensors, frames, frameBytes int) *verifier {
	v := &verifier{
		frames:     frames,
		frameBytes: frameBytes,
		words:      (frames + 63) / 64,
		locks:      make([]sync.Mutex, verifierShards),
		seen:       make([][]uint64, sensors),
	}
	for i := range v.seen {
		v.seen[i] = make([]uint64, v.words)
	}
	return v
}

func (v *verifier) record(sensorID, index int, msg []byte) {
	if sensorID < 0 || sensorID >= len(v.seen) || index < 0 || index >= v.frames {
		v.mismatched.Add(1)
		return
	}
	ok := len(msg) == v.frameBytes
	for i := 0; ok && i < len(msg); i++ {
		ok = msg[i] == byte(sensorID*31+index*7+i)
	}
	if !ok {
		v.mismatched.Add(1)
		return
	}
	mu := &v.locks[sensorID%verifierShards]
	mu.Lock()
	w, bit := index/64, uint64(1)<<uint(index%64)
	if v.seen[sensorID][w]&bit != 0 {
		mu.Unlock()
		v.duplicates.Add(1)
		return
	}
	v.seen[sensorID][w] |= bit
	mu.Unlock()
}

// missing counts (sensor, frame) pairs that were never delivered. Call only
// after the fleet has stopped.
func (v *verifier) missing() int64 {
	var n int64
	for id := range v.seen {
		for idx := 0; idx < v.frames; idx++ {
			if v.seen[id][idx/64]&(uint64(1)<<uint(idx%64)) == 0 {
				n++
			}
		}
	}
	return n
}

// errBurstPause is the sentinel a burstSource raises after its per-connection
// frame budget: the client run ends immediately (Terminal skips the reconnect
// budget) and the fleet loop reconnects later, resuming from the server's
// delivered index. This duty-cycles connections so a fleet far larger than
// the descriptor limit can all be mid-stream concurrently.
var errBurstPause = errors.New("burst budget reached; reconnect to continue")

// burstSource caps how many frames one connection carries. Seek marks the
// start of a connection (the client seeks to the server's resume index right
// after the hello), which resets the budget.
type burstSource struct {
	ingest.FrameSource
	limit int
	sent  int
}

func (b *burstSource) Seek(resume int) error {
	b.sent = 0
	return b.FrameSource.Seek(resume)
}

func (b *burstSource) Next(ctx context.Context) ([]byte, error) {
	if b.sent >= b.limit {
		return nil, ingest.Terminal(errBurstPause)
	}
	msg, err := b.FrameSource.Next(ctx)
	if err == nil {
		b.sent++
	}
	return msg, err
}

// pacedSource adapts a FrameSource for the release pacer: real payloads gain
// the in-payload marker, and a synthetic generation clock (a fixed gap per
// frame) gives the pacer's age-of-information accounting a production time
// to charge against. Each frame is marked into one reused buffer.
type pacedSource struct {
	ingest.FrameSource
	gap    time.Duration
	marked []byte
}

func (p *pacedSource) Next(ctx context.Context) ([]byte, error) {
	msg, err := p.FrameSource.Next(ctx)
	if err != nil {
		return nil, err
	}
	p.marked = ingest.MarkReal(p.marked[:0], msg)
	return p.marked, nil
}

func (p *pacedSource) LastGap() time.Duration { return p.gap }

// genSource synthesizes one sensor's frames on demand: a single reused
// buffer stamped with the sensor and frame index, so memory stays flat no
// matter how large the run is. Seek just repositions the counter — the
// content of frame i is a pure function of (sensor, i), which is exactly
// the resume contract.
type genSource struct {
	sensorID int
	total    int
	next     int
	buf      []byte
}

func (g *genSource) Total() int            { return g.total }
func (g *genSource) Seek(resume int) error { g.next = resume; return nil }

func (g *genSource) Next(ctx context.Context) ([]byte, error) {
	// Honor cancellation: without this check a cancelled run would keep
	// synthesizing frames until the transport noticed the closed socket.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range g.buf {
		g.buf[i] = byte(g.sensorID*31 + g.next*7 + i)
	}
	g.next++
	return g.buf, nil
}

// encSource synthesizes measurement batches and encodes them through a real
// core encoder, exercising the production encode kernels inside the load
// path. Each Next fills one reused batch and encodes it with AppendEncode
// into one reused payload, the simulator sensor's path: ingest.Client copies
// every frame into its gather buffer before it calls Next again. Frame i's
// content is a pure function of (sensor, i) — the LCG is reseeded from both
// every frame — so Seek satisfies the resume contract exactly.
type encSource struct {
	sensorID int
	total    int
	next     int
	enc      core.AppendEncoder
	cfg      core.Config
	batch    core.Batch
	payload  []byte
}

// frameK is the adaptive-style sample count for one frame: frames in the
// "event" label class carry twice the samples of quiet frames, mirroring how
// an adaptive policy samples densely around events. Under -encode standard
// the two counts produce two distinct wire sizes perfectly correlated with
// the label (the leak the live privacy monitor exists to show); under
// -encode age every frame still lands on the same fixed message size. The
// label function must match the projection Truth in runLoad.
func frameK(sensorID, frame, t int) int {
	k := t / 4
	if (sensorID+frame)%2 == 1 {
		k = t / 2
	}
	if k < 1 {
		k = 1
	}
	return k
}

func newEncSource(sensorID, total int, enc core.AppendEncoder, cfg core.Config) *encSource {
	// Backing arrays sized for the largest per-frame sample count; fill
	// reslices them to each frame's adaptive count.
	kMax := max(cfg.T/2, 1)
	b := core.Batch{Indices: make([]int, kMax), Values: make([][]float64, kMax)}
	for j := range b.Values {
		b.Values[j] = make([]float64, cfg.D)
	}
	return &encSource{sensorID: sensorID, total: total, enc: enc, cfg: cfg, batch: b}
}

func (s *encSource) Total() int { return s.total }

func (s *encSource) Seek(resume int) error {
	s.next = resume
	return nil
}

// fill overwrites the batch deterministically from (sensor, frame).
func (s *encSource) fill(frame int) {
	k := frameK(s.sensorID, frame, s.cfg.T)
	b := &s.batch
	b.Indices = b.Indices[:k]
	b.Values = b.Values[:k]
	x := uint32(s.sensorID)*2654435761 + uint32(frame)*40503 + 1
	max := s.cfg.Format.Max()
	for i := range b.Indices {
		b.Indices[i] = i * s.cfg.T / k
		row := b.Values[i]
		for j := range row {
			x = x*1664525 + 1013904223
			row[j] = (float64(int32(x)) / float64(1<<31)) * max
		}
	}
}

func (s *encSource) Next(ctx context.Context) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.fill(s.next)
	var err error
	if s.payload, err = s.enc.AppendEncode(s.payload[:0], s.batch); err != nil {
		return nil, ingest.Terminal(fmt.Errorf("encode frame %d: %w", s.next, err))
	}
	s.next++
	return s.payload, nil
}

// percentiles summarizes a latency distribution in milliseconds.
type percentiles struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

func summarize(durs []time.Duration) percentiles {
	if len(durs) == 0 {
		return percentiles{}
	}
	// Sort a copy: summarize is an observer, and reordering the caller's
	// slice would silently corrupt any index-aligned bookkeeping around it.
	durs = append([]time.Duration(nil), durs...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	at := func(p float64) float64 {
		idx := int(p*float64(len(durs))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(durs) {
			idx = len(durs) - 1
		}
		return float64(durs[idx]) / float64(time.Millisecond)
	}
	return percentiles{
		P50: at(0.50),
		P90: at(0.90),
		P99: at(0.99),
		Max: float64(durs[len(durs)-1]) / float64(time.Millisecond),
	}
}

// pacerReport summarizes the frame-release pacer's cost for one run: how
// much of the wire traffic was real (goodput) and how stale frames were at
// release (age of information).
type pacerReport struct {
	Mode        string  `json:"mode"`
	IntervalMS  float64 `json:"interval_ms"`
	JitterFrac  float64 `json:"jitter_frac"`
	GenGapMS    float64 `json:"gen_gap_ms"`
	RealFrames  int64   `json:"real_frames"`
	DummyFrames int64   `json:"dummy_frames"`
	DummyBytes  int64   `json:"dummy_bytes"`
	GoodputPct  float64 `json:"goodput_pct"`
	MeanAoIMS   float64 `json:"mean_aoi_ms"`
	MaxAoIMS    float64 `json:"max_aoi_ms"`
}

// report is the -out JSON payload.
type report struct {
	Sensors         int    `json:"sensors"`
	FramesPerSensor int    `json:"frames_per_sensor"`
	FrameBytes      int    `json:"frame_bytes"`
	Shards          int    `json:"shards"`
	WorkersPerShard int    `json:"workers_per_shard"`
	QueueDepth      int    `json:"queue_depth"`
	WriteBatch      int    `json:"write_batch"`
	EncodeMode      string `json:"encode_mode"`

	WallSeconds     float64     `json:"wall_seconds"`
	DeliveredFrames int64       `json:"delivered_frames"`
	FramesPerSec    float64     `json:"frames_per_sec"`
	MBPerSec        float64     `json:"mb_per_sec"`
	SessionLatency  percentiles `json:"session_latency"`

	Completed   int   `json:"completed_sensors"`
	Failed      int   `json:"failed_sensors"`
	SoftRejects int64 `json:"soft_rejects"`
	Reconnects  int64 `json:"reconnects"`

	Pacer *pacerReport `json:"pacer,omitempty"`

	Projection *projectionReport `json:"projection,omitempty"`

	Cluster *clusterReport `json:"cluster,omitempty"`

	Metrics metrics.Snapshot `json:"metrics"`
}

// clusterReport summarizes a multi-node run: how the gateway routed and
// migrated the fleet, what the mid-run kill cost, and what the byte-exact
// verifier found. missing_frames and mismatched_frames are the zero-loss
// acceptance figures the CI gate pins at zero.
type clusterReport struct {
	Nodes        int   `json:"nodes"`
	KilledNode   int   `json:"killed_node"` // -1 when no kill was requested
	KillAtFrames int64 `json:"kill_at_frames,omitempty"`
	ConnCap      int   `json:"conn_cap"`
	BurstFrames  int   `json:"burst_frames"`

	Routed           int64 `json:"routed"`
	Migrations       int64 `json:"migrations"`
	GatewayRejects   int64 `json:"gateway_rejects"`
	NodeDialFailures int64 `json:"node_dial_failures"`
	LocatorEvicted   int64 `json:"locator_evicted"`

	Verified         bool  `json:"verified"`
	MissingFrames    int64 `json:"missing_frames"`
	MismatchedFrames int64 `json:"mismatched_frames"`
	DuplicateFrames  int64 `json:"duplicate_frames"`
}

// projectionReport summarizes the streaming pipeline's work for one run —
// how much of the fleet's traffic was staged and projected, and what the
// live privacy monitor measured.
type projectionReport struct {
	StagedRecords   int64   `json:"staged_records"`
	DecodeErrors    int64   `json:"decode_errors"`
	CoveragePct     float64 `json:"coverage_pct"`
	Watermark       int     `json:"watermark"`
	SizeEntropyBits float64 `json:"size_entropy_bits"`
	NMI             float64 `json:"nmi"`
	DistinctSizes   int     `json:"distinct_sizes"`
	LabelDetections int64   `json:"label_detections"`
}

// loadOptions collects everything runLoad needs; main fills it from flags
// and tests fill it directly.
type loadOptions struct {
	sensors, frames, frameBytes int
	shards, workers, queue      int
	writeBatch                  int
	encode                      string
	ioTimeout                   time.Duration
	rejectAttempts              int
	reconnects                  int
	runTimeout                  time.Duration

	pace         ingest.PaceMode
	paceInterval time.Duration
	paceJitter   float64
	genGap       time.Duration

	project       bool
	projectWindow int
	projectAddr   string

	nodes      int
	killNode   int
	killAtFrac float64
	verify     bool
	conns      int
	burst      int
}

func main() {
	log.SetFlags(0)
	var (
		sensors    = flag.Int("sensors", 1000, "concurrent sensors to run")
		frames     = flag.Int("frames", 20, "frames each sensor streams")
		frameBytes = flag.Int("frame-bytes", 64, "payload bytes per frame")

		shards  = flag.Int("shards", 4, "server accept shards")
		workers = flag.Int("workers", 64, "workers per shard (concurrent sessions = shards*workers)")
		queue   = flag.Int("queue", 128, "per-shard pending-connection queue depth")

		writeBatch = flag.Int("write-batch", 8, "frames gathered into one TCP write per client")
		encode     = flag.String("encode", "none", "frame content: none (stamped bytes), age, or standard (encode synthetic batches through the production kernels)")

		pace         = flag.String("pace", "off", "frame-release pacing: off, live, constant, or jitter")
		paceInterval = flag.Duration("pace-interval", 2*time.Millisecond, "paced release interval (constant/jitter)")
		paceJitter   = flag.Float64("pace-jitter", 0.3, "release jitter fraction (jitter mode)")
		genGap       = flag.Duration("pace-gen-gap", 3*time.Millisecond, "synthetic per-frame generation gap charged to age of information (slower than -pace-interval so slots without a pending frame carry cover traffic)")

		project       = flag.Bool("project", false, "run the streaming pipeline (decode → stage → project) on the delivery path and report its KPIs")
		projectWindow = flag.Int("project-window", 64, "rolling-KPI window for -project")
		projectAddr   = flag.String("project-addr", "", "serve /metrics and /projections on this address during a -project run (empty = off)")

		nodes      = flag.Int("nodes", 1, "ingest nodes behind one gateway (>1 runs the cluster path)")
		killNode   = flag.Int("kill-node", -1, "kill this node id mid-run to exercise migration/resume (-1 = none)")
		killAtFrac = flag.Float64("kill-at-frac", 0.5, "kill the node once this fraction of the fleet's frames has been delivered")
		verify     = flag.Bool("verify", false, "check every delivered frame byte-for-byte against the generator (cluster mode, -encode none)")
		conns      = flag.Int("conns", 0, "cap on concurrently connected sensors; parked sensors wait for a slot (0 = no cap)")
		burst      = flag.Int("burst", 0, "frames per connection before a sensor disconnects and rejoins the queue (0 = whole stream in one connection)")

		ioTimeout      = flag.Duration("io-timeout", 5*time.Second, "per-frame read/write deadline")
		rejectAttempts = flag.Int("reject-attempts", 64, "client budget for transient server rejects")
		reconnects     = flag.Int("reconnect-attempts", 2, "client budget for redial+resume after a dropped link")
		runTimeout     = flag.Duration("run-timeout", 2*time.Minute, "whole-run bound")
		out            = flag.String("out", "BENCH_ingest.json", "write the throughput/latency report to this JSON file (empty = skip)")
	)
	flag.Parse()
	if *sensors <= 0 || *frames <= 0 || *frameBytes <= 0 {
		log.Fatal("ageload: -sensors, -frames, and -frame-bytes must be positive")
	}
	if *killNode >= 0 && *nodes <= 1 {
		log.Fatal("ageload: -kill-node needs -nodes > 1")
	}
	paceMode, err := ingest.ParsePaceMode(*pace)
	if err != nil {
		log.Fatalf("ageload: %v", err)
	}

	opts := loadOptions{
		sensors: *sensors, frames: *frames, frameBytes: *frameBytes,
		shards: *shards, workers: *workers, queue: *queue,
		writeBatch: *writeBatch, encode: *encode,
		ioTimeout: *ioTimeout, rejectAttempts: *rejectAttempts,
		reconnects: *reconnects, runTimeout: *runTimeout,
		pace: paceMode, paceInterval: *paceInterval,
		paceJitter: *paceJitter, genGap: *genGap,
		project: *project, projectWindow: *projectWindow, projectAddr: *projectAddr,
		nodes: *nodes, killNode: *killNode, killAtFrac: *killAtFrac,
		verify: *verify, conns: *conns, burst: *burst,
	}
	run := runLoad
	if opts.nodes > 1 {
		run = runCluster
	}
	rep, err := run(opts)
	if err != nil {
		log.Fatalf("ageload: %v", err)
	}

	fmt.Printf("ageload: %d/%d sensors completed, %d frames (%.0f frames/s, %.2f MB/s) in %.2fs\n",
		rep.Completed, rep.Sensors, rep.DeliveredFrames, rep.FramesPerSec, rep.MBPerSec, rep.WallSeconds)
	fmt.Printf("ageload: session latency p50 %.1fms p90 %.1fms p99 %.1fms max %.1fms; %d soft rejects, %d reconnects\n",
		rep.SessionLatency.P50, rep.SessionLatency.P90, rep.SessionLatency.P99, rep.SessionLatency.Max,
		rep.SoftRejects, rep.Reconnects)
	if p := rep.Pacer; p != nil {
		fmt.Printf("ageload: pacer %s: %.1f%% goodput (%d real, %d dummy frames), mean AoI %.2fms max %.2fms\n",
			p.Mode, p.GoodputPct, p.RealFrames, p.DummyFrames, p.MeanAoIMS, p.MaxAoIMS)
	}
	if pr := rep.Projection; pr != nil {
		fmt.Printf("ageload: projection: %d staged (%.1f%% coverage, %d decode errors), size entropy %.3f bits, NMI %.4f\n",
			pr.StagedRecords, pr.CoveragePct, pr.DecodeErrors, pr.SizeEntropyBits, pr.NMI)
	}
	if cr := rep.Cluster; cr != nil {
		fmt.Printf("ageload: cluster: %d nodes, %d routed, %d migrations, %d gateway rejects, %d node dial failures\n",
			cr.Nodes, cr.Routed, cr.Migrations, cr.GatewayRejects, cr.NodeDialFailures)
		if cr.Verified {
			fmt.Printf("ageload: verify: %d missing, %d mismatched, %d duplicate frames\n",
				cr.MissingFrames, cr.MismatchedFrames, cr.DuplicateFrames)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("ageload: report: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("ageload: report: %v", err)
		}
		fmt.Printf("ageload: wrote %s\n", *out)
	}
	if rep.Failed > 0 {
		log.Fatalf("ageload: %d sensors failed", rep.Failed)
	}
	if cr := rep.Cluster; cr != nil && cr.Verified && (cr.MissingFrames > 0 || cr.MismatchedFrames > 0) {
		log.Fatalf("ageload: verification failed: %d missing, %d mismatched frames",
			cr.MissingFrames, cr.MismatchedFrames)
	}
}

// runLoad drives one full load run: a production ingest server on loopback,
// opts.sensors real clients streaming opts.frames each, and the report
// summarizing what the wire saw.
func runLoad(opts loadOptions) (*report, error) {
	if opts.conns != 0 || opts.burst != 0 || opts.verify {
		return nil, errors.New("-conns, -burst and -verify need -nodes > 1: connection duty-cycling and the byte-exact verifier run on the cluster path")
	}
	// In encode mode every frame is a real encoded payload: a Q3.13
	// activity-style task sized so AGE's fixed message is about -frame-bytes.
	var codec frameCodec
	switch opts.encode {
	case "none":
	case "age", "standard":
		codec.cfg = core.Config{
			T: 50, D: 6,
			Format:      fixedpoint.Format{Width: 16, NonFrac: 3},
			TargetBytes: opts.frameBytes,
		}
		if opts.encode == "age" {
			codec.newEncoder = func() (core.AppendEncoder, error) { return core.NewAGE(codec.cfg) }
		} else {
			codec.newEncoder = func() (core.AppendEncoder, error) { return core.NewStandard(codec.cfg) }
		}
		if _, err := codec.newEncoder(); err != nil {
			return nil, fmt.Errorf("-encode %s with -frame-bytes %d: %w", opts.encode, opts.frameBytes, err)
		}
	default:
		return nil, fmt.Errorf("unknown -encode mode %q (want none, age, or standard)", opts.encode)
	}
	paced := opts.pace != ingest.PaceOff
	if paced && opts.pace != ingest.PaceLive && opts.paceInterval <= 0 {
		return nil, fmt.Errorf("-pace %s needs -pace-interval > 0", opts.pace)
	}

	reg := metrics.NewRegistry()

	// -project runs the streaming pipeline on the delivery path: the tap
	// decodes each delivered frame (through the same codec the fleet
	// encodes with), stages it, and the projection workers keep the live
	// KPIs. Labels are synthetic (a deterministic function of sensor and
	// frame, matching frameK's adaptive sample count) so the NMI monitor
	// has a marginal to correlate sizes against: standard encoding leaks
	// the label through the two wire sizes, AGE reads zero.
	var eng *projection.Engine
	if opts.project {
		pcfg := projection.Config{
			T: codec.cfg.T, D: codec.cfg.D,
			Unmark: paced,
			Window: opts.projectWindow,
			Truth: func(sensorID, index int) ([][]float64, int, bool) {
				return nil, (sensorID + index) % 2, true
			},
		}
		if codec.newEncoder != nil {
			_, dec, err := core.NewEncoder(core.Kind(opts.encode), codec.cfg)
			if err != nil {
				return nil, err
			}
			pcfg.Decode = dec
		}
		eng = projection.New(pcfg)
	}

	var got tally
	srv, err := ingest.NewServer(ingest.ServerConfig{
		Handler: ingest.HandlerFuncs{
			OpenFunc: func(sensorID, delivered int) (ingest.Session, error) {
				return &loadSession{total: opts.frames, paced: paced, got: &got}, nil
			},
		},
		Shards:          opts.shards,
		WorkersPerShard: opts.workers,
		QueueDepth:      opts.queue,
		IOTimeout:       opts.ioTimeout,
		Metrics:         reg,
		Stager:          stagerOrNil(eng),
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if eng != nil && opts.projectAddr != "" {
		dbg, err := reg.ListenAndServeWith(opts.projectAddr, map[string]http.Handler{
			"/projections": eng.Handler(),
		})
		if err != nil {
			return nil, fmt.Errorf("project-addr: %w", err)
		}
		defer dbg.Close()
		log.Printf("ageload: serving /metrics and /projections on %s", dbg.Addr)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	rep, err := driveFleet(opts, codec, srv.Addr().String(), reg, &got, func(ctx context.Context) error {
		if err := srv.Drain(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, ingest.ErrClosed) {
			return fmt.Errorf("serve: %w", err)
		}
		if eng != nil {
			// The server has drained: no more frames can reach the tap, so
			// Close drains the workers and the snapshot is final.
			eng.Close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if eng != nil {
		s := eng.Snapshot()
		rep.Projection = &projectionReport{
			StagedRecords:   s.StagedRecords,
			DecodeErrors:    s.DecodeErrors,
			CoveragePct:     s.CoveragePct,
			Watermark:       s.Watermark,
			SizeEntropyBits: s.Privacy.SizeEntropyBits,
			NMI:             s.Privacy.NMI,
			DistinctSizes:   s.Privacy.DistinctSizes,
			LabelDetections: s.Events.LabelDetections,
		}
	}
	return rep, nil
}

// runCluster drives the fleet against a gateway-fronted multi-node ingest
// cluster. Sensors speak to one address; the gateway routes by consistent
// hash with session affinity and migrates sessions on drain/rebalance. The
// optional mid-run kill throws away one node's session state, which clients
// absorb by resuming (from the killed node's perspective, from frame 0 —
// idempotent re-delivery the verifier tolerates as duplicates).
func runCluster(opts loadOptions) (*report, error) {
	if opts.nodes < 2 {
		return nil, fmt.Errorf("-nodes %d: the cluster path needs at least 2 nodes", opts.nodes)
	}
	if opts.encode != "none" {
		return nil, fmt.Errorf("-encode %s with -nodes: the cluster path drives stamped frames only", opts.encode)
	}
	if opts.project {
		return nil, errors.New("-project with -nodes: the streaming pipeline is single-node; drop one of the flags")
	}
	if opts.pace != ingest.PaceOff {
		return nil, errors.New("-pace with -nodes: release pacing is measured on the single-node path")
	}
	if opts.killNode >= opts.nodes {
		return nil, fmt.Errorf("-kill-node %d: only %d nodes", opts.killNode, opts.nodes)
	}
	if opts.burst < 0 || opts.conns < 0 {
		return nil, errors.New("-burst and -conns must be >= 0")
	}

	var ver *verifier
	if opts.verify {
		ver = newVerifier(opts.sensors, opts.frames, opts.frameBytes)
	}
	reg := metrics.NewRegistry()
	var got tally

	// The gateway holds two descriptors per proxied sensor and each node one
	// more, so its connection cap tracks the fleet's duty cycle, not the
	// fleet size.
	maxConns := 4 * opts.conns
	if opts.conns == 0 {
		maxConns = 2 * opts.sensors
	}
	cl, err := cluster.New(cluster.Config{
		Nodes: opts.nodes,
		NewNode: func(i int) cluster.NodeSpec {
			return cluster.NodeSpec{Server: ingest.ServerConfig{
				Handler: ingest.HandlerFuncs{
					OpenFunc: func(sensorID, delivered int) (ingest.Session, error) {
						return &loadSession{total: opts.frames, sensorID: sensorID, ver: ver, got: &got}, nil
					},
				},
				Shards:          opts.shards,
				WorkersPerShard: opts.workers,
				QueueDepth:      opts.queue,
				IOTimeout:       opts.ioTimeout,
				Metrics:         reg,
			}}
		},
		MaxConns:  maxConns,
		IOTimeout: opts.ioTimeout,
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}

	// The kill watcher fires once the fleet has delivered the requested
	// fraction of its frames, so the node dies with sessions mid-stream.
	// The drain stops it and waits for it, so a kill the fleet has earned
	// always lands before the drain.
	var killAt atomic.Int64
	killAt.Store(-1)
	stopWatch := make(chan struct{})
	killDone := make(chan struct{})
	if opts.killNode >= 0 {
		target := int64(float64(opts.sensors*opts.frames) * opts.killAtFrac)
		go func() {
			defer close(killDone)
			for got.frames.Load() < target {
				select {
				case <-stopWatch:
					if got.frames.Load() < target {
						return // the fleet finished short of the kill point
					}
				case <-time.After(time.Millisecond):
				}
			}
			at := got.frames.Load()
			if err := cl.KillNode(opts.killNode); err != nil {
				log.Printf("ageload: kill node %d: %v", opts.killNode, err)
				return
			}
			killAt.Store(at)
			log.Printf("ageload: killed node %d at %d delivered frames", opts.killNode, at)
		}()
	} else {
		close(killDone)
	}

	rep, err := driveFleet(opts, frameCodec{}, cl.Addr().String(), reg, &got, func(ctx context.Context) error {
		close(stopWatch)
		<-killDone
		if err := cl.Drain(ctx); err != nil {
			return fmt.Errorf("drain cluster: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c := rep.Metrics.Counters
	cr := &clusterReport{
		Nodes:            opts.nodes,
		KilledNode:       opts.killNode,
		ConnCap:          opts.conns,
		BurstFrames:      opts.burst,
		Routed:           c["cluster.routed"],
		Migrations:       c["cluster.migrations"],
		GatewayRejects:   c["cluster.rejected"],
		NodeDialFailures: c["cluster.node_dial_failures"],
		LocatorEvicted:   c["cluster.locator_evicted"],
		Verified:         ver != nil,
	}
	if at := killAt.Load(); at >= 0 {
		cr.KillAtFrames = at
	}
	if ver != nil {
		cr.MissingFrames = ver.missing()
		cr.MismatchedFrames = ver.mismatched.Load()
		cr.DuplicateFrames = ver.duplicates.Load()
	}
	rep.Cluster = cr
	return rep, nil
}

// tally counts what the target's sessions accept over the whole run.
type tally struct{ frames, bytes atomic.Int64 }

// frameCodec is the -encode mode the fleet's sources use: each sensor gets
// its own encoder from newEncoder, configured by cfg. A nil newEncoder means
// stamped genSource frames.
type frameCodec struct {
	cfg        core.Config
	newEncoder func() (core.AppendEncoder, error)
}

// driveFleet is the load loop both paths share. It runs opts.sensors real
// clients against addr, each streaming through the source stack
// encSource|genSource → pacedSource → burstSource, then drains the target
// and fills the report fields every run has. With -conns a sensor waits for
// one of that many connection slots; with -burst it gives its slot back
// after each budget and rejoins the queue, resuming where the server left
// off, its ClientStats summed across connections. got is the target's
// delivery tally.
func driveFleet(opts loadOptions, codec frameCodec, addr string, reg *metrics.Registry, got *tally, drain func(context.Context) error) (*report, error) {
	paced := opts.pace != ingest.PaceOff
	ctx, cancel := context.WithTimeout(context.Background(), opts.runTimeout)
	defer cancel()

	var sem chan struct{}
	if opts.conns > 0 {
		sem = make(chan struct{}, opts.conns)
	}
	durs := make([]time.Duration, opts.sensors)
	errs := make([]error, opts.sensors)
	stats := make([]ingest.ClientStats, opts.sensors)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opts.sensors; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ccfg := ingest.ClientConfig{
				Addr:              addr,
				SensorID:          id,
				IOTimeout:         opts.ioTimeout,
				DialAttempts:      6,
				RejectAttempts:    opts.rejectAttempts,
				ReconnectAttempts: opts.reconnects,
				WriteBatch:        opts.writeBatch,
				Metrics:           reg,
			}
			if paced {
				// The client frames each dummy before it asks for the
				// next, so one marked filler serves them all.
				cover := ingest.MarkDummy(nil, make([]byte, opts.frameBytes))
				ccfg.Seed = int64(id)*2654435761 + 1
				ccfg.Pacer = ingest.PacerConfig{
					Mode:       opts.pace,
					Interval:   opts.paceInterval,
					JitterFrac: opts.paceJitter,
					Dummy:      func() ([]byte, error) { return cover, nil },
				}
			}
			client := ingest.NewClient(ccfg)
			var src ingest.FrameSource
			if codec.newEncoder != nil {
				enc, err := codec.newEncoder()
				if err != nil {
					errs[id] = err
					return
				}
				src = newEncSource(id, opts.frames, enc, codec.cfg)
			} else {
				src = &genSource{sensorID: id, total: opts.frames, buf: make([]byte, opts.frameBytes)}
			}
			if paced {
				src = &pacedSource{FrameSource: src, gap: opts.genGap}
			}
			if opts.burst > 0 {
				src = &burstSource{FrameSource: src, limit: opts.burst}
			}
			t0 := time.Now()
			for {
				if sem != nil {
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
						errs[id] = ctx.Err()
						return
					}
				}
				st, err := client.Run(ctx, src)
				if sem != nil {
					<-sem
				}
				addStats(&stats[id], st)
				if errors.Is(err, errBurstPause) {
					continue // rejoin the queue; the next hello resumes
				}
				durs[id] = time.Since(t0)
				errs[id] = err
				return
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	drainCtx, drainCancel := context.WithTimeout(context.Background(), 2*opts.ioTimeout)
	defer drainCancel()
	if err := drain(drainCtx); err != nil {
		return nil, err
	}

	rep := &report{
		Sensors:         opts.sensors,
		FramesPerSensor: opts.frames,
		FrameBytes:      opts.frameBytes,
		Shards:          opts.shards,
		WorkersPerShard: opts.workers,
		QueueDepth:      opts.queue,
		WriteBatch:      opts.writeBatch,
		EncodeMode:      opts.encode,
		WallSeconds:     wall.Seconds(),
		DeliveredFrames: got.frames.Load(),
		Metrics:         reg.Snapshot(),
	}
	var total ingest.ClientStats
	var okDurs []time.Duration
	for i, err := range errs {
		addStats(&total, stats[i])
		if err != nil {
			rep.Failed++
			if rep.Failed <= 3 {
				log.Printf("ageload: sensor %d: %v", i, err)
			}
			continue
		}
		rep.Completed++
		okDurs = append(okDurs, durs[i])
	}
	rep.SessionLatency = summarize(okDurs)
	rep.SoftRejects = int64(total.SoftRejects)
	rep.Reconnects = int64(total.Reconnects)
	if wall > 0 {
		rep.FramesPerSec = float64(got.frames.Load()) / wall.Seconds()
		rep.MBPerSec = float64(got.bytes.Load()) / wall.Seconds() / 1e6
	}
	if paced {
		realFrames, dummyFrames := int64(total.FramesSent), int64(total.DummyFrames)
		p := &pacerReport{
			Mode:        opts.pace.String(),
			IntervalMS:  float64(opts.paceInterval) / float64(time.Millisecond),
			JitterFrac:  opts.paceJitter,
			GenGapMS:    float64(opts.genGap) / float64(time.Millisecond),
			RealFrames:  realFrames,
			DummyFrames: dummyFrames,
			DummyBytes:  int64(total.DummyBytesSent),
			MaxAoIMS:    float64(total.AoIMicrosMax) / 1e3,
		}
		if sent := realFrames + dummyFrames; sent > 0 {
			p.GoodputPct = 100 * float64(realFrames) / float64(sent)
		}
		if realFrames > 0 {
			p.MeanAoIMS = float64(total.AoIMicrosTotal) / float64(realFrames) / 1e3
		}
		rep.Pacer = p
	}
	return rep, nil
}

// addStats folds one connection's (or one sensor's) stats into acc: the
// fields the report reads add up, and the AoI maximum keeps the larger.
func addStats(acc *ingest.ClientStats, st ingest.ClientStats) {
	acc.SoftRejects += st.SoftRejects
	acc.Reconnects += st.Reconnects
	acc.FramesSent += st.FramesSent
	acc.DummyFrames += st.DummyFrames
	acc.DummyBytesSent += st.DummyBytesSent
	acc.AoIMicrosTotal += st.AoIMicrosTotal
	acc.AoIMicrosMax = max(acc.AoIMicrosMax, st.AoIMicrosMax)
}

// stagerOrNil avoids handing the server a non-nil interface wrapping a nil
// engine, which would re-enable the tap on every frame.
func stagerOrNil(eng *projection.Engine) ingest.Stager {
	if eng == nil {
		return nil
	}
	return eng
}
