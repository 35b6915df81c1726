package core

import (
	"time"

	"repro/internal/metrics"
)

// Codec instrumentation: the simulator wraps each encoder/decoder pair so
// live runs report Encode/Decode latency and throughput per encoder kind
// (AGE vs the baselines). The wrapper preserves the AppendEncoder /
// IntoDecoder reuse paths, and its per-call cost is two time.Now reads plus
// a handful of atomic adds — the AllocsPerRun tests in alloc_test.go verify
// the instrumented hot path still allocates nothing in steady state.

// CodecMetrics is the instrument family for one encoder kind. All instances
// of that kind (e.g. every fleet sensor's AGE encoder) share one family, the
// registry's get-or-create semantics making the sharing automatic.
type CodecMetrics struct {
	EncodeNs     *metrics.Histogram
	DecodeNs     *metrics.Histogram
	Encodes      *metrics.Counter
	Decodes      *metrics.Counter
	EncodeErrors *metrics.Counter
	DecodeErrors *metrics.Counter
	PayloadBytes *metrics.Counter
}

// NewCodecMetrics resolves (or creates) the codec instrument family for the
// named encoder kind in reg, under core.<name>.*. A nil registry yields nil,
// which InstrumentCodec treats as "leave the codec bare".
func NewCodecMetrics(reg *metrics.Registry, name string) *CodecMetrics {
	if reg == nil {
		return nil
	}
	return &CodecMetrics{
		EncodeNs:     reg.Histogram("core."+name+".encode_ns", metrics.LatencyBuckets()...),
		DecodeNs:     reg.Histogram("core."+name+".decode_ns", metrics.LatencyBuckets()...),
		Encodes:      reg.Counter("core." + name + ".encodes"),
		Decodes:      reg.Counter("core." + name + ".decodes"),
		EncodeErrors: reg.Counter("core." + name + ".encode_errors"),
		DecodeErrors: reg.Counter("core." + name + ".decode_errors"),
		PayloadBytes: reg.Counter("core." + name + ".payload_bytes"),
	}
}

// instrumentedCodec wraps a codec with latency and count instrumentation,
// keeping its reuse paths.
type instrumentedCodec struct {
	enc AppendEncoder
	dec IntoDecoder
	cm  *CodecMetrics
}

// InstrumentCodec wraps the pair with cm. With cm == nil the inputs are
// returned untouched, so call sites thread an optional *CodecMetrics without
// branching. The wrapper is wire-invisible: bytes in and out are exactly the
// wrapped codec's.
func InstrumentCodec(enc AppendEncoder, dec IntoDecoder, cm *CodecMetrics) (AppendEncoder, IntoDecoder) {
	if cm == nil {
		return enc, dec
	}
	ic := &instrumentedCodec{enc: enc, dec: dec, cm: cm}
	return ic, ic
}

// Name implements Encoder.
func (ic *instrumentedCodec) Name() string { return ic.enc.Name() }

// Encode implements Encoder.
func (ic *instrumentedCodec) Encode(b Batch) ([]byte, error) {
	start := time.Now()
	out, err := ic.enc.Encode(b)
	ic.finishEncode(start, out, err)
	return out, err
}

// AppendEncode implements AppendEncoder.
//
//age:hotpath
func (ic *instrumentedCodec) AppendEncode(dst []byte, b Batch) ([]byte, error) {
	start := time.Now()
	out, err := ic.enc.AppendEncode(dst, b)
	ic.finishEncode(start, out, err)
	return out, err
}

func (ic *instrumentedCodec) finishEncode(start time.Time, out []byte, err error) {
	ic.cm.EncodeNs.ObserveSince(start)
	if err != nil {
		ic.cm.EncodeErrors.Inc()
		return
	}
	ic.cm.Encodes.Inc()
	ic.cm.PayloadBytes.Add(int64(len(out)))
}

// Decode implements Decoder.
func (ic *instrumentedCodec) Decode(payload []byte) (Batch, error) {
	start := time.Now()
	b, err := ic.dec.Decode(payload)
	ic.finishDecode(start, err)
	return b, err
}

// DecodeInto implements IntoDecoder.
//
//age:hotpath
func (ic *instrumentedCodec) DecodeInto(b *Batch, payload []byte) error {
	start := time.Now()
	err := ic.dec.DecodeInto(b, payload)
	ic.finishDecode(start, err)
	return err
}

func (ic *instrumentedCodec) finishDecode(start time.Time, err error) {
	ic.cm.DecodeNs.ObserveSince(start)
	if err != nil {
		ic.cm.DecodeErrors.Inc()
		return
	}
	ic.cm.Decodes.Inc()
}
