// KPI reductions must be replay-deterministic: a projection rebuilt from a
// checkpoint (or recomputed after a crash) has to land on byte-identical
// snapshots, so the count-map folds here are order-independent and detrand
// enforces the contract file-wide.
//
//age:deterministic
package projection

import (
	"encoding/json"
	"maps"
	"strconv"
	"strings"

	"repro/internal/reconstruct"
	"repro/internal/staging"
	"repro/internal/stats"
)

// MAESnapshot reports the rolling reconstruction-error projection.
type MAESnapshot struct {
	// Count is how many truth-bearing records were scored.
	Count int64 `json:"count"`
	// MeanMAE and WeightedMAE mirror reconstruct.Accumulator's two
	// figures over every scored record.
	MeanMAE     float64 `json:"mean_mae"`
	WeightedMAE float64 `json:"weighted_mae"`
	// RollingMAE is the mean over the last Window scored records.
	RollingMAE float64 `json:"rolling_mae"`
	Window     int     `json:"window"`
	// ReconErrors counts records whose batch failed to reconstruct.
	ReconErrors int64 `json:"recon_errors"`
	// PerSensor maps sensor id (as a JSON string) to its mean MAE.
	PerSensor map[string]float64 `json:"per_sensor_mean"`
}

// maeKPI scores each truth-bearing record's linear reconstruction. Its
// sums mirror reconstruct.Accumulator — including the all-zero-weight
// fallback — so a quiesced snapshot is comparable to the offline
// evaluation to within float summation order.
type maeKPI struct {
	t, d   int
	window int

	state maeState
	ring  []float64 // last window MAEs, ringNext the write position
}

// maeState is the checkpointable aggregate.
type maeState struct {
	Count       int64              `json:"count"`
	SumMAE      float64            `json:"sum_mae"`
	SumWeighted float64            `json:"sum_weighted"`
	SumWeights  float64            `json:"sum_weights"`
	ReconErrors int64              `json:"recon_errors"`
	Ring        []float64          `json:"ring"`
	RingNext    int                `json:"ring_next"`
	RingLen     int                `json:"ring_len"`
	PerSensor   map[int]*sensorMAE `json:"per_sensor"`
}

type sensorMAE struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

func newMAEKPI(cfg Config) *maeKPI {
	return &maeKPI{
		t: cfg.T, d: cfg.D, window: cfg.Window,
		state: maeState{PerSensor: map[int]*sensorMAE{}},
		ring:  make([]float64, 0, cfg.Window),
	}
}

func (k *maeKPI) apply(sensorID int, rec staging.Record) {
	if rec.Truth == nil || rec.Indices == nil {
		return
	}
	mae, w, err := reconstruct.LinearMAEStdDev(rec.Indices, rec.Values, rec.Truth, k.t, k.d)
	if err != nil {
		k.state.ReconErrors++
		return
	}
	k.state.Count++
	k.state.SumMAE += mae
	k.state.SumWeighted += mae * w
	k.state.SumWeights += w
	s := k.state.PerSensor[sensorID]
	if s == nil {
		s = &sensorMAE{}
		k.state.PerSensor[sensorID] = s
	}
	s.Count++
	s.Sum += mae
	if len(k.ring) < k.window {
		k.ring = append(k.ring, mae)
	} else {
		// Unsigned, so a restored ring_next at the int limit wraps
		// instead of indexing below the ring.
		k.ring[uint(k.state.RingNext)%uint(k.window)] = mae
	}
	k.state.RingNext++
}

func (k *maeKPI) snapshot() MAESnapshot {
	snap := MAESnapshot{
		Count:       k.state.Count,
		Window:      k.window,
		ReconErrors: k.state.ReconErrors,
		PerSensor:   map[string]float64{},
	}
	if k.state.Count > 0 {
		snap.MeanMAE = k.state.SumMAE / float64(k.state.Count)
	}
	// The deviation-weighted figure falls back to the plain mean when
	// every weight is zero, matching Accumulator.WeightedMAE.
	if k.state.SumWeights != 0 {
		snap.WeightedMAE = k.state.SumWeighted / k.state.SumWeights
	} else {
		snap.WeightedMAE = snap.MeanMAE
	}
	if len(k.ring) > 0 {
		var s float64
		for _, m := range k.ring {
			s += m
		}
		snap.RollingMAE = s / float64(len(k.ring))
	}
	for _, id := range sortedIDs(k.state.PerSensor) {
		s := k.state.PerSensor[id]
		if s.Count > 0 {
			snap.PerSensor[strconv.Itoa(id)] = s.Sum / float64(s.Count)
		}
	}
	return snap
}

func (k *maeKPI) marshal() json.RawMessage {
	st := k.state
	st.Ring = append([]float64(nil), k.ring...)
	st.RingLen = len(k.ring)
	data, _ := json.Marshal(st)
	return data
}

// unmarshal restores a checkpointed state. A negative ring_next is
// malformed and leaves the KPI as it was; a null per-sensor entry is
// dropped, as if the sensor had never been scored. A ring this window
// could have written (full, or still filling with ring_next at its
// length) restores verbatim; any other, such as one written under a
// different window, is put in write order and cut to its last window
// entries.
func (k *maeKPI) unmarshal(data json.RawMessage) {
	var st maeState
	if json.Unmarshal(data, &st) != nil || st.RingNext < 0 {
		return
	}
	if st.PerSensor == nil {
		st.PerSensor = map[int]*sensorMAE{}
	}
	maps.DeleteFunc(st.PerSensor, func(_ int, s *sensorMAE) bool { return s == nil })
	ring := st.Ring
	if n := len(ring); n > k.window || (n < k.window && st.RingNext != n) {
		if n > 0 {
			// The oldest entry of a full ring sits at ring_next mod its length.
			start := st.RingNext % n
			ring = append(ring[start:len(ring):len(ring)], ring[:start]...)
		}
		ring = ring[max(0, len(ring)-k.window):]
		st.RingNext = len(ring)
	}
	k.ring = append(k.ring[:0], ring...)
	st.Ring = nil
	k.state = st
}

// EventSnapshot reports the event-detection projection.
type EventSnapshot struct {
	// Records is how many records the detector examined.
	Records int64 `json:"records"`
	// LabelDetections counts records whose ground-truth label was
	// positive; LabelTransitions counts per-sensor label changes.
	LabelDetections  int64 `json:"label_detections"`
	LabelTransitions int64 `json:"label_transitions"`
	// ThresholdDetections counts records with any measurement at or
	// above Config.EventThreshold in magnitude.
	ThresholdDetections int64 `json:"threshold_detections"`
}

// eventKPI counts label- and threshold-based detections.
type eventKPI struct {
	threshold float64
	state     eventState
}

type eventState struct {
	Records             int64       `json:"records"`
	LabelDetections     int64       `json:"label_detections"`
	LabelTransitions    int64       `json:"label_transitions"`
	ThresholdDetections int64       `json:"threshold_detections"`
	LastLabel           map[int]int `json:"last_label"`
}

func newEventKPI(cfg Config) *eventKPI {
	return &eventKPI{threshold: cfg.EventThreshold, state: eventState{LastLabel: map[int]int{}}}
}

func (k *eventKPI) apply(sensorID int, rec staging.Record) {
	k.state.Records++
	if rec.Label > 0 {
		k.state.LabelDetections++
	}
	if rec.Label >= 0 {
		if last, ok := k.state.LastLabel[sensorID]; ok && last != rec.Label {
			k.state.LabelTransitions++
		}
		k.state.LastLabel[sensorID] = rec.Label
	}
	if k.threshold > 0 {
		for _, row := range rec.Values {
			for _, v := range row {
				if v >= k.threshold || v <= -k.threshold {
					k.state.ThresholdDetections++
					return
				}
			}
		}
	}
}

func (k *eventKPI) snapshot() EventSnapshot {
	return EventSnapshot{
		Records:             k.state.Records,
		LabelDetections:     k.state.LabelDetections,
		LabelTransitions:    k.state.LabelTransitions,
		ThresholdDetections: k.state.ThresholdDetections,
	}
}

func (k *eventKPI) marshal() json.RawMessage {
	data, _ := json.Marshal(k.state)
	return data
}

func (k *eventKPI) unmarshal(data json.RawMessage) {
	var st eventState
	if json.Unmarshal(data, &st) != nil {
		return
	}
	if st.LastLabel == nil {
		st.LastLabel = map[int]int{}
	}
	k.state = st
}

// PrivacySnapshot reports the live leakage monitor.
type PrivacySnapshot struct {
	// Records is how many watermark-visible records were folded in.
	Records int64 `json:"records"`
	// SizeEntropyBits is the Shannon entropy of the observed (bucketed)
	// message sizes — 0 means perfectly uniform sizes, the AGE goal.
	SizeEntropyBits float64 `json:"size_entropy_bits"`
	// LabelEntropyBits is the entropy of the observed event labels.
	LabelEntropyBits float64 `json:"label_entropy_bits"`
	// NMI is the normalized mutual information between message sizes
	// and labels (Eq. 3) — the paper's leakage figure, live.
	NMI float64 `json:"nmi"`
	// DistinctSizes is how many size buckets have been observed.
	DistinctSizes int `json:"distinct_sizes"`
	// PerSensor reports arrival age per sensor id (JSON-keyed string).
	PerSensor map[string]ArrivalSnapshot `json:"per_sensor"`
}

// ArrivalSnapshot is one sensor's arrival-age figures — the server-side
// age-of-information proxy (the client-side AoI lives in the ingest
// client's metrics).
type ArrivalSnapshot struct {
	Records        int64   `json:"records"`
	MeanInterMS    float64 `json:"mean_interarrival_ms"`
	MaxInterMS     float64 `json:"max_interarrival_ms"`
	StalenessMS    float64 `json:"staleness_ms"`
	LastRecvUnixNS int64   `json:"last_recv_unix_ns"`
}

// privacyKPI maintains count tables over message sizes and labels, so the
// entropy/NMI figures are multiset statistics — independent of the order
// records from different sensors interleave, which (with the watermark
// bound) makes quiesced snapshots deterministic.
type privacyKPI struct {
	bucket int
	state  privacyState
}

type privacyState struct {
	Records int64 `json:"records"`
	// Count tables.
	Sizes  map[int]int64 `json:"sizes"`
	Labels map[int]int64 `json:"labels"`
	Joint  jointCounts   `json:"joint"`
	// Per-sensor arrival accounting (nanoseconds).
	Arrivals map[int]*arrival `json:"arrivals"`
}

// jointCounts counts records by (label, size). JSON object keys are
// strings, so a checkpoint keys it "label,size"; the conversion happens
// only when a checkpoint is written or read.
type jointCounts map[[2]int]int64

func (j jointCounts) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, len(j))
	//age:allow detrand each entry lands in a slot derived from its own key; encoding/json sorts the keys
	for key, c := range j {
		m[strconv.Itoa(key[0])+","+strconv.Itoa(key[1])] = c
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads a checkpointed table, skipping any key that is not
// two comma-separated integers.
func (j *jointCounts) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*j = make(jointCounts, len(m))
	//age:allow detrand each entry lands in a slot derived from its own key; the fold is order-independent
	for key, c := range m {
		l, s, ok := strings.Cut(key, ",")
		label, err1 := strconv.Atoi(l)
		size, err2 := strconv.Atoi(s)
		if ok && err1 == nil && err2 == nil {
			(*j)[[2]int{label, size}] += c
		}
	}
	return nil
}

type arrival struct {
	Records  int64 `json:"records"`
	LastNano int64 `json:"last_nano"`
	SumInter int64 `json:"sum_inter"`
	MaxInter int64 `json:"max_inter"`
}

func newPrivacyKPI(cfg Config) *privacyKPI {
	return &privacyKPI{
		bucket: cfg.SizeBucket,
		state: privacyState{
			Sizes:    map[int]int64{},
			Labels:   map[int]int64{},
			Joint:    jointCounts{},
			Arrivals: map[int]*arrival{},
		},
	}
}

func (k *privacyKPI) apply(sensorID int, rec staging.Record) {
	k.state.Records++
	size := rec.WireBytes / k.bucket
	k.state.Sizes[size]++
	if rec.Label >= 0 {
		k.state.Labels[rec.Label]++
		k.state.Joint[[2]int{rec.Label, size}]++
	}
	a := k.state.Arrivals[sensorID]
	if a == nil {
		a = &arrival{LastNano: rec.RecvUnixNano}
		k.state.Arrivals[sensorID] = a
	} else {
		inter := rec.RecvUnixNano - a.LastNano
		if inter < 0 {
			inter = 0
		}
		a.SumInter += inter
		if inter > a.MaxInter {
			a.MaxInter = inter
		}
		a.LastNano = rec.RecvUnixNano
	}
	a.Records++
}

func (k *privacyKPI) snapshot(now int64) PrivacySnapshot {
	snap := PrivacySnapshot{
		Records:          k.state.Records,
		SizeEntropyBits:  stats.EntropyCounts(k.state.Sizes),
		LabelEntropyBits: stats.EntropyCounts(k.state.Labels),
		NMI:              stats.NMICounts(k.state.Joint),
		DistinctSizes:    len(k.state.Sizes),
		PerSensor:        map[string]ArrivalSnapshot{},
	}
	for _, id := range sortedIDs(k.state.Arrivals) {
		a := k.state.Arrivals[id]
		as := ArrivalSnapshot{Records: a.Records, LastRecvUnixNS: a.LastNano}
		if a.Records > 1 {
			as.MeanInterMS = float64(a.SumInter) / float64(a.Records-1) / 1e6
		}
		as.MaxInterMS = float64(a.MaxInter) / 1e6
		if now > a.LastNano {
			as.StalenessMS = float64(now-a.LastNano) / 1e6
		}
		snap.PerSensor[strconv.Itoa(id)] = as
	}
	return snap
}

func (k *privacyKPI) marshal() json.RawMessage {
	data, _ := json.Marshal(k.state)
	return data
}

// unmarshal restores a checkpointed state, dropping null arrival entries.
func (k *privacyKPI) unmarshal(data json.RawMessage) {
	var st privacyState
	if json.Unmarshal(data, &st) != nil {
		return
	}
	if st.Sizes == nil {
		st.Sizes = map[int]int64{}
	}
	if st.Labels == nil {
		st.Labels = map[int]int64{}
	}
	if st.Joint == nil {
		st.Joint = jointCounts{}
	}
	if st.Arrivals == nil {
		st.Arrivals = map[int]*arrival{}
	}
	maps.DeleteFunc(st.Arrivals, func(_ int, a *arrival) bool { return a == nil })
	k.state = st
}
