package simulator

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/policy"
	"repro/internal/reconstruct"
	"repro/internal/seccomm"
)

// The per-batch pipeline of §5.1 exists once: a sensor samples, encodes and
// seals, and a station opens, decodes and scores. RunContext wires sensor 0
// straight to a station; the fleet puts ingest's client and server between.

// fleetKey derives sensor sensorID's key (shared out of band in a real
// system); the in-process run uses sensor 0's. No result depends on it.
func fleetKey(sensorID int, cipher seccomm.CipherKind) []byte {
	n := 32
	if cipher == seccomm.AES128Block {
		n = 16
	}
	key := make([]byte, n)
	for i := range key {
		key[i] = byte(sensorID*31 + i*7 + 5)
	}
	return key
}

// sensor is one node's half. Its ONE sealer serves real frames and the
// pacer's dummies for the sensor's whole lifetime, so the nonce counter
// stays monotonic across redials and a resumed stream never reuses a (key,
// nonce) pair. When paced, the real/dummy mark rides inside the envelope.
type sensor struct {
	policy policy.Policy
	seed   int64 // Seek rewinds rng to it
	rng    *rand.Rand
	enc    core.AppendEncoder
	sealer seccomm.Sealer
	paced  bool
	// cover is the pacer's marked filler, the size of a marked payload;
	// every dummy seals it afresh.
	cover []byte
	// payload, marked and rows are reused from step to step: every sealer
	// copies its plaintext into a fresh message, and ingest.Client copies
	// each message into its gather buffer before it calls Next again.
	payload, marked []byte
	rows            [][]float64
}

// newSensor builds sensor sensorID, sampling from the run seed plus its id.
func newSensor(base RunConfig, sensorID int, paced bool) (*sensor, error) {
	encs, err := buildEncoder(base.Encoder, coreConfig(base), base.Cipher)
	if err != nil {
		return nil, err
	}
	sealer, err := seccomm.NewSealer(base.Cipher, fleetKey(sensorID, base.Cipher))
	if err != nil {
		return nil, err
	}
	seed := base.Seed + int64(sensorID)
	s := &sensor{policy: base.Policy, seed: seed, rng: newSeededRand(seed), enc: encs.enc,
		sealer: sealer, paced: paced}
	if paced {
		s.cover = ingest.MarkDummy(nil, make([]byte, encs.payloadBytes))
	}
	return s, nil
}

// step samples seq, encodes the collected rows and seals the payload. It
// returns the sealed message and how many measurements the policy collected.
func (s *sensor) step(seq [][]float64) (msg []byte, collected int, err error) {
	idx := s.policy.Sample(seq, s.rng)
	s.rows = s.rows[:0]
	for _, t := range idx {
		s.rows = append(s.rows, seq[t])
	}
	if s.payload, err = s.enc.AppendEncode(s.payload[:0], core.Batch{Indices: idx, Values: s.rows}); err != nil {
		return nil, 0, err
	}
	plain := s.payload
	if s.paced {
		s.marked = ingest.MarkReal(s.marked[:0], s.payload)
		plain = s.marked
	}
	msg, err = s.sealer.Seal(plain)
	return msg, len(idx), err
}

// dummy seals one pacer cover frame.
func (s *sensor) dummy() ([]byte, error) { return s.sealer.Seal(s.cover) }

// station is the base station's half for one sensor.
type station struct {
	opener seccomm.Sealer
	dec    core.IntoDecoder
	paced  bool
	T, d   int
	batch  core.Batch // every real frame decodes into it
}

// newStation builds the station that opens sensor sensorID's frames.
func newStation(base RunConfig, sensorID int, paced bool) (*station, error) {
	encs, err := buildEncoder(base.Encoder, coreConfig(base), base.Cipher)
	if err != nil {
		return nil, err
	}
	opener, err := seccomm.NewSealer(base.Cipher, fleetKey(sensorID, base.Cipher))
	if err != nil {
		return nil, err
	}
	meta := base.Dataset.Meta
	return &station{opener: opener, dec: encs.dec, paced: paced, T: meta.SeqLen, d: meta.NumFeatures}, nil
}

// step opens msg, unmarks it when paced, decodes it into st.batch and
// returns the MAE of its linear reconstruction against truth. For a cover
// frame, which only the key holder can tell, it returns ingest.ErrDummyFrame.
func (st *station) step(msg []byte, truth [][]float64) (float64, error) {
	payload, err := st.opener.Open(msg)
	if err == nil && st.paced {
		var dummy bool
		if payload, dummy, err = ingest.Unmark(payload); dummy {
			return 0, ingest.ErrDummyFrame
		}
	}
	if err != nil {
		return 0, err
	}
	if err := st.dec.DecodeInto(&st.batch, payload); err != nil {
		return 0, err
	}
	return reconstruct.LinearMAE(st.batch.Indices, st.batch.Values, truth, st.T, st.d)
}
