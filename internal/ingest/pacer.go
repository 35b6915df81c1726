package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// The frame-release pacer: AGE fixes every frame's *size*, but a sensor
// that transmits whenever its adaptive policy has data still modulates
// *when* frames appear on the wire, and inter-frame timing classifies
// events about as well as sizes do (the AoI-eavesdropper literature makes
// the same observation for adaptive sampling at large). The pacer separates
// frame generation — which stays data-driven — from frame release. This
// file holds its modes, schedule and dummy convention; the release itself
// is Client.send, the one loop that also runs the unpaced batched path:
//
//   - PaceLive transmits each frame at its data-driven generation time.
//     This is the honest model of an undefended low-power sensor and the
//     baseline the timing attack is mounted against.
//   - PaceConstant releases one frame per fixed interval. Release slots
//     with no generated frame ready send an encrypted dummy instead, so
//     the wire carries one indistinguishable frame per slot no matter
//     what the sensor observed.
//   - PaceJitter is PaceConstant with each interval perturbed by a seeded
//     uniform jitter — a cheaper schedule that trades a small residual
//     pattern for lower worst-case added latency.
//
// Dummies must be dropped by the receiving application *after* unsealing —
// only the key holder can tell them apart, which is the point. The Mark/
// Unmark helpers define the one-byte payload convention for that, and
// Session.Frame implementations return ErrDummyFrame to make the server
// discard a dummy without advancing the sensor's delivered index.
//
// The cost of pacing is freshness: a frame generated mid-interval waits for
// its slot. The client accounts that wait as age of information (AoI) in
// ClientStats, so the privacy/freshness trade-off is measured, not assumed.
// Paced AoI is the scheduled slot minus the frame's virtual generation
// instant; live AoI is the wall clock from that instant to the end of the
// write.

// PaceMode selects the client's frame-release discipline.
type PaceMode int

const (
	// PaceOff disables the pacer: frames are sent as fast as the link
	// accepts them, batched per ClientConfig.WriteBatch.
	PaceOff PaceMode = iota
	// PaceLive releases each frame at its data-driven generation time (the
	// TimedSource schedule). No dummies; the timing channel is open.
	PaceLive
	// PaceConstant releases exactly one frame per Interval, substituting
	// sealed dummies when no real frame is ready.
	PaceConstant
	// PaceJitter releases one frame per Interval*(1 ± JitterFrac*u), with
	// u drawn by an RNG seeded from ClientConfig.Seed; dummies fill empty
	// slots.
	PaceJitter
)

// String names the mode for flags and logs.
func (m PaceMode) String() string {
	switch m {
	case PaceOff:
		return "off"
	case PaceLive:
		return "live"
	case PaceConstant:
		return "constant"
	case PaceJitter:
		return "jitter"
	}
	return fmt.Sprintf("pace(%d)", int(m))
}

// ParsePaceMode parses a -pace flag value.
func ParsePaceMode(s string) (PaceMode, error) {
	switch s {
	case "off":
		return PaceOff, nil
	case "live":
		return PaceLive, nil
	case "constant":
		return PaceConstant, nil
	case "jitter":
		return PaceJitter, nil
	}
	return 0, fmt.Errorf("ingest: unknown pace mode %q (want off, live, constant, or jitter)", s)
}

// maxJitterFrac caps PacerConfig.JitterFrac: a jitter of 1 would allow
// zero-length intervals, collapsing the release schedule.
const maxJitterFrac = 0.9

// PacerConfig configures the client's frame-release pacer.
type PacerConfig struct {
	// Mode selects the release discipline (default PaceOff).
	Mode PaceMode
	// Interval is the release period for PaceConstant/PaceJitter. It must
	// be positive in those modes. To keep AoI bounded it should be at most
	// the source's mean generation gap; shorter intervals spend goodput on
	// dummies to buy freshness.
	Interval time.Duration
	// JitterFrac perturbs each PaceJitter interval by a uniform draw in
	// [-JitterFrac, +JitterFrac] of Interval. Clamped to [0, 0.9].
	JitterFrac float64
	// Dummy produces one sealed cover frame, required for PaceConstant and
	// PaceJitter. The result must be indistinguishable from a real sealed
	// frame on the wire (same size distribution, fresh nonce) and must
	// unseal to a payload Unmark reports as a dummy. It must not write into
	// storage the FrameSource's Next returned: the client may still hold
	// that frame.
	Dummy func() ([]byte, error)
}

// TimedSource is a FrameSource whose frames become available on a
// data-driven schedule — the timing side-channel itself. After each Next
// call, LastGap reports the delay between the previous frame's availability
// and the just-produced frame's availability (for the first frame after a
// Seek, the delay from the stream start). PaceLive enforces this schedule
// on the wire; PaceConstant/PaceJitter use it only to decide whether the
// pending frame has "happened" yet and must otherwise be covered by a
// dummy. Sources that don't implement it are treated as always-available
// (every gap zero).
type TimedSource interface {
	FrameSource
	// The data-driven generation gap is the timing side-channel's secret:
	// leaktaint tracks every value derived from it.
	//age:secret
	LastGap() time.Duration
}

// Payload marker bytes, the first byte of every *unsealed* payload under
// the pacer's dummy convention. They live inside the sealed envelope, so an
// eavesdropper cannot read them; the key-holding receiver strips them with
// Unmark.
const (
	markerDummy = 0x00
	markerReal  = 0x01
)

// ErrDummyFrame is returned by Session.Frame implementations that unsealed
// a frame and found a pacer dummy. The server discards the frame without
// advancing the sensor's delivered index, so delivery accounting — and the
// resume contract — are identical with pacing on or off.
var ErrDummyFrame = errors.New("ingest: dummy frame")

// MarkReal appends payload, prefixed with the real-frame marker, to dst and
// returns the extended slice; a reused dst[:0] marks without allocating.
// dst's storage must not overlap payload. Sources seal the marked payload;
// the receiving session unmarks after unsealing.
func MarkReal(dst, payload []byte) []byte { return mark(dst, markerReal, payload) }

// MarkDummy appends filler, prefixed with the dummy marker, to dst and
// returns the extended slice. The filler's length should match a real
// payload's so sealed sizes are identical.
func MarkDummy(dst, filler []byte) []byte { return mark(dst, markerDummy, filler) }

func mark(dst []byte, marker byte, payload []byte) []byte {
	dst = slices.Grow(dst, 1+len(payload))
	return append(append(dst, marker), payload...)
}

// Unmark splits a marked payload into its content and its dummy verdict.
// For dummies the returned payload is nil — the filler is meaningless by
// construction. An unknown marker is a *ProtocolError: it means the peer is
// not speaking the pacer convention, and guessing would either drop real
// data or feed filler downstream.
func Unmark(payload []byte) ([]byte, bool, error) {
	if len(payload) == 0 {
		return nil, false, &ProtocolError{What: "frame marker (empty payload)", Value: 0}
	}
	switch payload[0] {
	case markerReal:
		return payload[1:], false, nil
	case markerDummy:
		return nil, true, nil
	}
	return nil, false, &ProtocolError{What: "frame marker", Value: payload[0]}
}

// paceScheduler emits the inter-slot intervals of a release schedule. With
// no RNG (constant mode, or zero jitter) every interval is fixed; otherwise
// each interval is Interval*(1 + JitterFrac*u), u uniform in [-1, 1), from
// the seeded RNG — deterministic for a fixed seed.
type paceScheduler struct {
	interval time.Duration
	jitter   float64
	rng      *rand.Rand
}

func newPaceScheduler(p PacerConfig, seed int64) *paceScheduler {
	s := &paceScheduler{interval: p.Interval, jitter: p.JitterFrac}
	if p.Mode == PaceJitter && p.JitterFrac > 0 {
		s.rng = rand.New(rand.NewSource(seed))
	}
	return s
}

// next returns the delay from the previous release slot to the next one.
func (s *paceScheduler) next() time.Duration {
	if s.rng == nil {
		return s.interval
	}
	u := 2*s.rng.Float64() - 1
	return time.Duration(float64(s.interval) * (1 + s.jitter*u))
}

// observeAoI accounts one real frame's age of information at release.
func (c *Client) observeAoI(st *ClientStats, aoi time.Duration) {
	if aoi < 0 {
		aoi = 0
	}
	us := aoi.Microseconds()
	st.AoIMicrosTotal += us
	if us > st.AoIMicrosMax {
		st.AoIMicrosMax = us
	}
	c.m.aoiNs.Observe(aoi.Nanoseconds())
}
