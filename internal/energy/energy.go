// Package energy models the power consumption of the paper's sensor
// platform: a TI MSP430 FR5994 MCU with an HM-10 Bluetooth Low Energy radio
// (§2.1, §5.1). The paper's own simulator "tracks energy using traces from a
// TI MSP430"; this package plays the same role, with constants anchored to
// the figures the paper reports:
//
//   - an HM-10 radio consumes about 25 mJ to connect and send a 40-byte
//     message (§2.1), and cutting a message by 30 bytes saves about 0.9 mJ
//     (§5.8) — i.e. roughly 0.03 mJ per payload byte over a ~23.8 mJ
//     connection cost;
//   - the MCU draws about 0.4 mW per clock MHz (§2.1);
//   - AGE encoding a full Activity sequence costs about 0.154 mJ versus
//     0.016 mJ for a direct buffer write (§5.8).
//
// Budgets follow §5.1: the budget for a collection fraction p is the total
// energy a Uniform sampler would spend collecting p of all elements.
package energy

import (
	"fmt"
	"math"
)

// EncoderKind identifies how a batch is encoded, which determines the
// MCU-side computation energy.
type EncoderKind int

const (
	// EncodeStandard writes values directly into the output buffer.
	EncodeStandard EncoderKind = iota
	// EncodeAGE runs the full AGE pipeline (prune, group, quantize).
	EncodeAGE
	// EncodePadded writes directly, then pads; compute cost is standard.
	EncodePadded
)

// Valid reports whether k names a known encoder class.
func (k EncoderKind) Valid() bool {
	return k == EncodeStandard || k == EncodeAGE || k == EncodePadded
}

// String names the encoder class for error messages and reports.
func (k EncoderKind) String() string {
	switch k {
	case EncodeStandard:
		return "standard"
	case EncodeAGE:
		return "age"
	case EncodePadded:
		return "padded"
	}
	return fmt.Sprintf("EncoderKind(%d)", int(k))
}

// Model holds the energy trace constants, all in millijoules unless noted.
type Model struct {
	// RadioConnectMJ is the fixed cost of waking the radio and
	// establishing a connection for one batched transmission.
	RadioConnectMJ float64
	// PerByteMJ is the marginal cost of one transmitted payload byte.
	PerByteMJ float64
	// PerSampleMJ is the cost of capturing one measurement (sensor
	// activation + ADC + FRAM write).
	PerSampleMJ float64
	// BaselineMJ is the per-sequence MCU active-mode cost excluding
	// encoding (policy bookkeeping, timers).
	BaselineMJ float64
	// EncodeStandardUJPerValue is the direct-write encode cost per value,
	// in microjoules.
	EncodeStandardUJPerValue float64
	// EncodeAGEUJPerValue is the AGE encode cost per value, in
	// microjoules.
	EncodeAGEUJPerValue float64
	// AGESafetyFactor conservatively multiplies AGE's compute energy, as
	// the paper's simulator does (§5.1 uses 4x).
	AGESafetyFactor float64
}

// Default returns the model with constants derived from the paper (see the
// package comment).
func Default() Model {
	return Model{
		RadioConnectMJ: 23.8,
		PerByteMJ:      0.03,
		PerSampleMJ:    0.11,
		BaselineMJ:     0.3,
		// §5.8: 0.016 mJ for ~300 values (Activity: 50 steps x 6
		// features) direct write, 0.154 mJ for AGE.
		EncodeStandardUJPerValue: 0.016 * 1000 / 300,
		EncodeAGEUJPerValue:      0.154 * 1000 / 300,
		AGESafetyFactor:          4,
	}
}

// EncodeMJ returns the MCU energy to encode `values` scalar values with the
// given encoder, including the safety factor for AGE. A negative count or an
// unknown encoder kind is a caller bug and returns an error — silently
// charging a garbage kind at the standard rate would understate AGE
// deployments by the safety factor.
func (m Model) EncodeMJ(values int, kind EncoderKind) (float64, error) {
	if values < 0 {
		return 0, fmt.Errorf("energy: encode of %d values (count must be non-negative)", values)
	}
	if !kind.Valid() {
		return 0, fmt.Errorf("energy: unknown encoder kind %s", kind)
	}
	if kind == EncodeAGE {
		return m.EncodeAGEUJPerValue * float64(values) / 1000 * m.AGESafetyFactor, nil
	}
	return m.EncodeStandardUJPerValue * float64(values) / 1000, nil
}

// TransmitMJ returns the radio energy to send one batched message of the
// given payload size.
func (m Model) TransmitMJ(payloadBytes int) (float64, error) {
	if payloadBytes < 0 {
		return 0, fmt.Errorf("energy: transmit of %d bytes (payload must be non-negative)", payloadBytes)
	}
	return m.RadioConnectMJ + m.PerByteMJ*float64(payloadBytes), nil
}

// CollectMJ returns the sensing energy for k captured measurements.
func (m Model) CollectMJ(k int) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("energy: collect of %d measurements (count must be non-negative)", k)
	}
	return m.PerSampleMJ * float64(k), nil
}

// SequenceMJ returns the full energy for one sequence: collect k
// measurements (k*d values), encode them, and transmit payloadBytes.
func (m Model) SequenceMJ(k, d, payloadBytes int, kind EncoderKind) (float64, error) {
	if d < 1 {
		return 0, fmt.Errorf("energy: sequence with %d features (need at least 1)", d)
	}
	collect, err := m.CollectMJ(k)
	if err != nil {
		return 0, err
	}
	encode, err := m.EncodeMJ(k*d, kind)
	if err != nil {
		return 0, err
	}
	transmit, err := m.TransmitMJ(payloadBytes)
	if err != nil {
		return 0, err
	}
	return m.BaselineMJ + collect + encode + transmit, nil
}

// Meter tracks spending against a budget in millijoules.
type Meter struct {
	BudgetMJ float64
	SpentMJ  float64
}

// NewMeter returns a meter with the given budget.
func NewMeter(budgetMJ float64) *Meter { return &Meter{BudgetMJ: budgetMJ} }

// Charge records a spend and reports whether the meter is still within
// budget after the charge.
func (t *Meter) Charge(mj float64) bool {
	t.SpentMJ += mj
	return !t.Exceeded()
}

// Exceeded reports whether cumulative spending exceeds the budget.
func (t *Meter) Exceeded() bool { return t.SpentMJ > t.BudgetMJ }

// UniformSequenceMJ returns the per-sequence energy of a Uniform sampler
// collecting a fraction rate of a T-step, d-feature sequence whose standard
// message payload is sized by payloadBytes (a function of the collected
// count). This defines the paper's budget scale (§5.1).
func (m Model) UniformSequenceMJ(T, d int, rate float64, payloadBytes func(k int) int) (float64, error) {
	if T < 1 {
		return 0, fmt.Errorf("energy: uniform sequence over %d steps (need at least 1)", T)
	}
	if math.IsNaN(rate) {
		return 0, fmt.Errorf("energy: uniform sequence rate is NaN")
	}
	if payloadBytes == nil {
		return 0, fmt.Errorf("energy: uniform sequence needs a payload size function")
	}
	k := CollectCount(T, rate)
	return m.SequenceMJ(k, d, payloadBytes(k), EncodeStandard)
}

// CollectCount returns the number of elements a Uniform policy collects for
// a target fraction: floor(rate*T), at least 1, at most T.
func CollectCount(T int, rate float64) int {
	k := int(rate * float64(T))
	if k < 1 {
		k = 1
	}
	if k > T {
		k = T
	}
	return k
}
