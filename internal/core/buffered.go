package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/fixedpoint"
)

// Buffered implements the alternative defense §7 discusses and rejects:
// keep messages the same size by buffering excess measurements and sending
// them in later windows, losslessly. Its two failure modes are exactly the
// ones the paper names — reporting latency grows whenever the policy
// over-samples, and the bounded sensor memory forces drops when
// over-sampling persists — and the Buffered experiment measures both.
//
// Wire layout (fixed TargetBytes per window):
//
//	[1B measurement count m]
//	per measurement: [ageBits window age] [idxBits index] [d x w0 values]
//	[zero pad to TargetBytes]
//
// The window age says how many windows ago the measurement was captured, so
// the server can reassemble sequences; it saturates at maxAge.
type Buffered struct {
	cfg        Config
	perMessage int // measurements per message
	maxBuffer  int // queued measurements the sensor can hold

	window int
	queue  []bufferedMeasurement

	// Telemetry for the §7 analysis.
	Sent         int // measurements delivered
	Dropped      int // measurements lost to the memory bound
	TotalLatency int // sum of delivered window ages
	MaxLatency   int
}

type bufferedMeasurement struct {
	window int
	index  int
	values []float64
}

// ageBits caps the window-age field; older measurements saturate.
const ageBits = 4

const maxAge = 1<<ageBits - 1

// NewBuffered returns a buffering encoder. TargetBytes fixes the message
// size; bufferLimit models the sensor's spare RAM in measurements (the
// MSP430 FR5994 has 8 KiB SRAM — a few hundred Activity measurements at
// most once the radio and policy state take their share).
func NewBuffered(cfg Config, bufferLimit int) (*Buffered, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	per := buffCapacity(cfg)
	if per < 1 {
		return nil, fmt.Errorf("core: buffered target %dB cannot hold one measurement: %w", cfg.TargetBytes, ErrTargetTooSmall)
	}
	if bufferLimit < 1 {
		return nil, fmt.Errorf("core: buffer limit %d must be positive", bufferLimit)
	}
	return &Buffered{cfg: cfg, perMessage: per, maxBuffer: bufferLimit}, nil
}

// buffCapacity computes how many tagged full-width measurements fit in the
// target.
func buffCapacity(cfg Config) int {
	perBits := ageBits + indexBits(cfg.T) + cfg.D*cfg.Format.Width
	return (8*cfg.TargetBytes - 8) / perBits
}

// PayloadBytes returns the fixed message size.
func (b *Buffered) PayloadBytes() int { return b.cfg.TargetBytes }

// Push enqueues one window's batch and emits that window's fixed-size
// message (oldest measurements first). Excess measurements wait; if the
// queue exceeds the memory bound, the newest measurements are dropped, as a
// real sensor out of RAM must.
func (b *Buffered) Push(batch Batch) ([]byte, error) {
	if err := batch.Validate(b.cfg.T, b.cfg.D); err != nil {
		return nil, err
	}
	for i := range batch.Indices {
		if len(b.queue) >= b.maxBuffer {
			b.Dropped++
			continue
		}
		b.queue = append(b.queue, bufferedMeasurement{
			window: b.window,
			index:  batch.Indices[i],
			values: batch.Values[i],
		})
	}
	n := b.perMessage
	if n > len(b.queue) {
		n = len(b.queue)
	}
	w := bitio.NewWriter(b.cfg.TargetBytes)
	w.WriteBits(uint32(n), 8)
	ib := indexBits(b.cfg.T)
	q := fixedpoint.NewQuantizer(b.cfg.Format)
	for _, m := range b.queue[:n] {
		age := b.window - m.window
		if age > maxAge {
			age = maxAge
		}
		if age > b.MaxLatency {
			b.MaxLatency = age
		}
		b.TotalLatency += age
		b.Sent++
		w.WriteBits(uint32(age), ageBits)
		w.WriteBits(uint32(m.index), ib)
		for _, v := range m.values {
			w.WriteBits(q.Bits(v), b.cfg.Format.Width)
		}
	}
	b.queue = append(b.queue[:0], b.queue[n:]...)
	b.window++
	w.PadTo(b.cfg.TargetBytes)
	return w.Bytes(), nil
}

// Pending returns the number of queued, undelivered measurements.
func (b *Buffered) Pending() int { return len(b.queue) }

// MeanLatency returns the average delivery delay in windows.
func (b *Buffered) MeanLatency() float64 {
	if b.Sent == 0 {
		return 0
	}
	return float64(b.TotalLatency) / float64(b.Sent)
}

// BufferedMeasurement is one decoded, window-tagged measurement.
type BufferedMeasurement struct {
	// WindowAge is how many windows before the message's own window the
	// measurement was captured (0 = current window).
	WindowAge int
	Index     int
	Values    []float64
}

// DecodeBuffered parses one Buffered message.
func DecodeBuffered(payload []byte, cfg Config) ([]BufferedMeasurement, error) {
	cfg = cfg.withDefaults()
	r := bitio.NewReader(payload)
	n, err := r.ReadBits(8)
	if err != nil {
		return nil, fmt.Errorf("core: buffered decode count: %w", err)
	}
	ib := indexBits(cfg.T)
	out := make([]BufferedMeasurement, 0, n)
	for i := 0; i < int(n); i++ {
		age, err1 := r.ReadBits(ageBits)
		idx, err2 := r.ReadBits(ib)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("core: buffered decode measurement %d", i)
		}
		if int(idx) >= cfg.T {
			return nil, fmt.Errorf("core: buffered decode: index %d out of range", idx)
		}
		m := BufferedMeasurement{WindowAge: int(age), Index: int(idx), Values: make([]float64, cfg.D)}
		for f := 0; f < cfg.D; f++ {
			bitsv, err := r.ReadBits(cfg.Format.Width)
			if err != nil {
				return nil, fmt.Errorf("core: buffered decode values: %w", err)
			}
			m.Values[f] = fixedpoint.FromBits(bitsv, cfg.Format).Float()
		}
		out = append(out, m)
	}
	return out, nil
}
