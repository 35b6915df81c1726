package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fixedpoint"
	"repro/internal/reconstruct"
	"repro/internal/seccomm"
)

// Frame geometry: ageload's frameK shape. A window holds T=50 samples of
// D=6 features in Q3.13; quiet frames carry T/4 samples and event frames
// T/2, and AGE pads or prunes every batch to one 64-byte payload.
const (
	winT        = 50
	winD        = 6
	targetBytes = 64
	// truthPool is how many distinct truth windows each label class draws
	// from: small enough to stay in cache, large enough that reconstruction
	// error is not one repeated number.
	truthPool = 16
)

var frameFormat = fixedpoint.Format{Width: 16, NonFrac: 3}

func encoderConfig() core.Config {
	return core.Config{T: winT, D: winD, Format: frameFormat, TargetBytes: targetBytes}
}

// newCodec builds the batch encoder the sensors use; the same value is the
// server-side decoder.
func newCodec(kind string) (core.AppendEncoder, core.Decoder, error) {
	switch kind {
	case "age":
		a, err := core.NewAGE(encoderConfig())
		return a, a, err
	case "standard":
		s, err := core.NewStandard(encoderConfig())
		return s, s, err
	}
	return nil, nil, fmt.Errorf("unknown encoder %q (want age or standard)", kind)
}

// genConfig fixes one recording. Every frame is a pure function of
// (Seed, sensor, index).
type genConfig struct {
	Seed    int64
	Sensors int
	Frames  int // per sensor
	Encoder string
}

// recording is a sensor fleet's sealed frames, stored back to back in one
// pointer-free arena so the garbage collector never scans it. frame(s, i)
// is the exact byte string sensor s sends as frame i.
type recording struct {
	cfg     genConfig
	key     []byte
	arena   []byte
	offsets []uint32 // len Sensors*Frames+1
	truth   [2][truthPool][][]float64
}

func (r *recording) frame(sensor, index int) []byte {
	i := sensor*r.cfg.Frames + index
	return r.arena[r.offsets[i]:r.offsets[i+1]]
}

func (r *recording) totalFrames() int { return r.cfg.Sensors * r.cfg.Frames }

// mix is a splitmix64 step: the generator's only source of randomness.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func frameHash(seed int64, sensor, index int) uint64 {
	return mix(mix(mix(uint64(seed))^uint64(sensor)) ^ uint64(index))
}

// truthOf implements projection.Config.Truth: the frame's full window and
// its label.
func (r *recording) truthOf(sensor, index int) ([][]float64, int, bool) {
	h := frameHash(r.cfg.Seed, sensor, index)
	lab := int(h & 1)
	return r.truth[lab][(h>>1)%truthPool], lab, true
}

// newRecording derives the key and truth windows from the seed and sizes
// the arena; record fills it.
func newRecording(cfg genConfig) *recording {
	r := &recording{cfg: cfg, key: make([]byte, 32), offsets: make([]uint32, 1, cfg.Sensors*cfg.Frames+1)}
	binary.LittleEndian.PutUint64(r.key, mix(uint64(cfg.Seed)^0x6b6579))
	for i := 8; i < len(r.key); i += 8 {
		binary.LittleEndian.PutUint64(r.key[i:], mix(binary.LittleEndian.Uint64(r.key[i-8:])))
	}
	r.arena = make([]byte, 0, cfg.Sensors*cfg.Frames*(targetBytes+12))
	max := frameFormat.Max()
	for lab := 0; lab < 2; lab++ {
		// Event windows swing wider and faster than quiet ones.
		amp, freq := 0.25*max, 1.0
		if lab == 1 {
			amp, freq = 0.8*max, 3.0
		}
		for p := 0; p < truthPool; p++ {
			h := mix(uint64(cfg.Seed)*31 + uint64(lab*truthPool+p))
			w := make([][]float64, winT)
			for t := range w {
				w[t] = make([]float64, winD)
				for d := range w[t] {
					h = mix(h)
					noise := (float64(h>>11)/(1<<53) - 0.5) * 0.1 * max
					phase := float64(d) + float64(p)
					v := amp*math.Sin(2*math.Pi*freq*float64(t)/winT+phase) + noise
					w[t][d] = math.Max(-max, math.Min(max, v))
				}
			}
			r.truth[lab][p] = w
		}
	}
	return r
}

// fillBatch writes frame (sensor, index)'s adaptive sample of its truth
// window into b, with rows taken from vals: quiet frames keep T/4 steps,
// one in four, and event frames T/2, one in two, each run starting at a
// per-frame offset; every kept measurement carries a little per-frame
// sensor noise.
func (r *recording) fillBatch(b *core.Batch, vals [][]float64, sensor, index int) {
	w, lab, _ := r.truthOf(sensor, index)
	k, stride := winT/4, 4
	if lab == 1 {
		k, stride = winT/2, 2
	}
	h := frameHash(r.cfg.Seed, sensor, index)
	off := int(h>>8) % stride
	noise := frameFormat.Max() / 512
	b.Indices = b.Indices[:0]
	b.Values = b.Values[:0]
	for j := 0; j < k; j++ {
		t := off + j*stride
		row := vals[j]
		for d := range row {
			h = mix(h)
			row[d] = w[t][d] + noise*(float64(h>>11)/(1<<53)-0.5)
		}
		b.Indices = append(b.Indices, t)
		b.Values = append(b.Values, row)
	}
}

// sensorStats is the sensor phase's cost: what a sensor's CPU spends per
// frame sampling, encoding and sealing.
type sensorStats struct {
	Frames   int
	Wall     time.Duration
	EncodeNs int64 // summed over frames; zero unless timed
	SealNs   int64
}

// record runs the sensor phase: every sensor, in order, samples, encodes
// and seals its frames with its own sealer into the arena.
// Single-threaded, so the rate is one core's. With timed set, each encode
// and seal call is clocked for the per-layer ledger.
func (r *recording) record(timed bool) (sensorStats, error) {
	enc, _, err := newCodec(r.cfg.Encoder)
	if err != nil {
		return sensorStats{}, err
	}
	var st sensorStats
	b := core.Batch{Indices: make([]int, 0, winT), Values: make([][]float64, 0, winT)}
	vals := make([][]float64, winT)
	for i := range vals {
		vals[i] = make([]float64, winD)
	}
	var payload []byte
	start := time.Now()
	for s := 0; s < r.cfg.Sensors; s++ {
		sealer, err := seccomm.NewSealer(seccomm.ChaCha20Stream, r.key)
		if err != nil {
			return st, err
		}
		for i := 0; i < r.cfg.Frames; i++ {
			r.fillBatch(&b, vals, s, i)
			var t0, t1 time.Time
			if timed {
				t0 = time.Now()
			}
			if payload, err = enc.AppendEncode(payload[:0], b); err != nil {
				return st, fmt.Errorf("encode sensor %d frame %d: %w", s, i, err)
			}
			if timed {
				t1 = time.Now()
				st.EncodeNs += int64(t1.Sub(t0))
			}
			sealed, err := sealer.Seal(payload)
			if err != nil {
				return st, fmt.Errorf("seal sensor %d frame %d: %w", s, i, err)
			}
			if timed {
				st.SealNs += int64(time.Since(t1))
			}
			r.arena = append(r.arena, sealed...)
			r.offsets = append(r.offsets, uint32(len(r.arena)))
		}
	}
	st.Wall = time.Since(start)
	st.Frames = r.totalFrames()
	return st, nil
}

// digest hashes the recorded bytes and their boundaries.
func (r *recording) digest() [32]byte {
	h := sha256.New()
	var b [4]byte
	for _, off := range r.offsets {
		binary.LittleEndian.PutUint32(b[:], off)
		h.Write(b[:])
	}
	h.Write(r.arena)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// maeOracle is the offline recomputation of the projection's mae worker:
// every recorded frame opened, decoded, rebuilt and scored against its
// truth window, summed in (sensor, index) order.
type maeOracle struct {
	Count       int64
	MeanMAE     float64
	WeightedMAE float64
}

func (r *recording) oracle() (maeOracle, error) {
	_, dec, err := newCodec(r.cfg.Encoder)
	if err != nil {
		return maeOracle{}, err
	}
	into, ok := dec.(core.IntoDecoder)
	if !ok {
		return maeOracle{}, fmt.Errorf("%s decoder cannot decode in place", r.cfg.Encoder)
	}
	opener, err := seccomm.NewSealer(seccomm.ChaCha20Stream, r.key)
	if err != nil {
		return maeOracle{}, err
	}
	var weights [2][truthPool]float64
	for lab := range r.truth {
		for p, w := range r.truth[lab] {
			weights[lab][p] = reconstruct.SequenceStdDev(w)
		}
	}
	var acc reconstruct.Accumulator
	var b core.Batch
	for s := 0; s < r.cfg.Sensors; s++ {
		for i := 0; i < r.cfg.Frames; i++ {
			plain, err := opener.Open(r.frame(s, i))
			if err != nil {
				return maeOracle{}, err
			}
			if err := into.DecodeInto(&b, plain); err != nil {
				return maeOracle{}, err
			}
			h := frameHash(r.cfg.Seed, s, i)
			lab, p := h&1, (h>>1)%truthPool
			recon, err := reconstruct.Linear(b.Indices, b.Values, winT, winD)
			if err != nil {
				return maeOracle{}, err
			}
			mae, err := reconstruct.MAE(recon, r.truth[lab][p])
			if err != nil {
				return maeOracle{}, err
			}
			acc.Add(mae, weights[lab][p])
		}
	}
	return maeOracle{Count: int64(acc.Count()), MeanMAE: acc.MAE(), WeightedMAE: acc.WeightedMAE()}, nil
}
