// Package age is the public API of this reproduction of "Protecting
// Adaptive Sampling from Information Leakage on Low-Power Sensors" (Kannan &
// Hoffmann, ASPLOS 2022).
//
// Adaptive sampling policies collect more measurements when a signal is
// volatile and fewer when it is calm. Under batched, periodic communication
// the resulting message sizes track the collection rate, so an attacker
// observing the encrypted link can infer sensed events from sizes alone.
// Adaptive Group Encoding (AGE) closes the side-channel: it is a drop-in
// lossy encoder between the sampler and the cipher that packs every batch
// into a fixed-length message, using measurement pruning, exponent-aware
// grouping, and per-group fixed-point quantization to keep the added error
// near zero.
//
// The package re-exports the building blocks a downstream user needs:
//
//   - encoders: NewAGEEncoder (the contribution), NewStandardEncoder,
//     NewPaddedEncoder, and the ablation variants;
//   - sampling policies: Uniform, Random, Linear, Deviation, and a
//     trainable Skip RNN, plus offline threshold fitting;
//   - the sensing workloads of the paper's Table 3;
//   - the encrypted link (ChaCha20 or AES-128-CBC sealing with framing);
//   - server-side reconstruction and error metrics;
//   - the message-size attacker and leakage statistics (NMI);
//   - the end-to-end simulator with MSP430/BLE energy accounting;
//   - the long-lived ingest server/client and the gateway-fronted
//     multi-node ingest cluster with session migration (NewCluster).
//
// See examples/quickstart for a five-minute tour.
package age

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/fixedpoint"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/reconstruct"
	"repro/internal/seccomm"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// ---- Sentinel errors ----

// The facade's sentinel errors. Every constructor and decoder wraps one of
// these (via %w) into a descriptive message, so callers branch with
// errors.Is while the error text keeps its diagnostic detail.
var (
	// ErrPayloadLength marks a decode attempt on a payload whose length
	// violates the encoder's wire contract.
	ErrPayloadLength = core.ErrPayloadLength
	// ErrTargetTooSmall marks an EncoderConfig whose TargetBytes cannot
	// hold even the encoder's fixed header.
	ErrTargetTooSmall = core.ErrTargetTooSmall
	// ErrUnknownEncoder marks an EncoderKind outside the six variants.
	ErrUnknownEncoder = core.ErrUnknownEncoder
	// ErrBadKey marks a cipher key whose length does not match the cipher.
	ErrBadKey = seccomm.ErrBadKey
	// ErrServerClosed marks use of an ingest Server after Close (or a stop
	// already in progress); it is also what Serve returns after a
	// deliberate shutdown, mirroring net/http's ErrServerClosed.
	ErrServerClosed = ingest.ErrClosed
)

// ---- Fixed-point formats and batches ----

// Format is a signed fixed-point representation: Width total bits of which
// NonFrac (including the sign bit) sit before the binary point.
type Format = fixedpoint.Format

// Batch is one communication window of collected measurements: the time
// indices the policy chose and the corresponding d-feature values.
type Batch = core.Batch

// EncoderConfig describes the sensing task an encoder serves: the batch
// length T, the feature count D, the native fixed-point Format, and — for
// fixed-size encoders — the target message size in bytes.
type EncoderConfig = core.Config

// Encoder serializes batches; fixed-size implementations always emit the
// configured number of bytes.
type Encoder = core.Encoder

// Decoder recovers batches from payloads.
type Decoder = core.Decoder

// NewAGEEncoder returns the Adaptive Group Encoding encoder/decoder (§4 of
// the paper): every batch encodes to exactly cfg.TargetBytes. The returned
// encoder also exposes EncodeRaw, an integer-only path matching the paper's
// MCU implementation byte for byte.
func NewAGEEncoder(cfg EncoderConfig) (*core.AGE, error) { return core.NewAGE(cfg) }

// NewStandardEncoder returns the baseline variable-length encoder whose
// message sizes leak the collection rate.
func NewStandardEncoder(cfg EncoderConfig) (*core.Standard, error) { return core.NewStandard(cfg) }

// NewPaddedEncoder returns the BuFLO-style defense: Standard encoding padded
// to the largest possible batch.
func NewPaddedEncoder(cfg EncoderConfig) (*core.Padded, error) { return core.NewPadded(cfg) }

// NewSingleEncoder, NewUnshiftedEncoder, and NewPrunedEncoder are the §5.6
// ablation variants of AGE.
func NewSingleEncoder(cfg EncoderConfig) (*core.Single, error)       { return core.NewSingle(cfg) }
func NewUnshiftedEncoder(cfg EncoderConfig) (*core.Unshifted, error) { return core.NewUnshifted(cfg) }
func NewPrunedEncoder(cfg EncoderConfig) (*core.Pruned, error)       { return core.NewPruned(cfg) }

// NewEncoder is the unified factory over all six encoder variants: one call
// site builds the kind's matched encoder/decoder pair. cfg.TargetBytes is
// honored as given for the fixed-size kinds (every kind but EncStandard);
// derive it the way the paper does with TargetBytesForRate, ReduceTarget,
// and RoundTargetToCipher. An unknown kind reports ErrUnknownEncoder and an
// unachievable target reports ErrTargetTooSmall, both matchable with
// errors.Is.
func NewEncoder(kind EncoderKind, cfg EncoderConfig) (Encoder, Decoder, error) {
	return core.NewEncoder(kind, cfg)
}

// EncoderKinds lists the six encoder kinds, for sweeps over variants.
func EncoderKinds() []EncoderKind { return core.Kinds() }

// TargetBytesForRate returns the paper's M_B: the Standard payload size at a
// given collection rate, the natural fixed target for that budget.
func TargetBytesForRate(rate float64, T, d, width int) int {
	return core.TargetBytesForRate(rate, T, d, width)
}

// ReduceTarget applies AGE's §4.5 communication reduction, which pays for
// the encoder's compute energy by shrinking the radio payload.
func ReduceTarget(target int) int { return core.ReduceTarget(target) }

// ---- Sampling policies ----

// Policy decides online which time steps of a sequence to collect.
type Policy = policy.Policy

// NewUniformPolicy collects an evenly spaced, data-independent fraction of
// elements (no leakage, but no adaptivity).
func NewUniformPolicy(rate float64) Policy { return policy.NewUniform(rate) }

// NewRandomPolicy collects a random fixed-count subset.
func NewRandomPolicy(rate float64) Policy { return policy.NewRandom(rate) }

// NewLinearPolicy returns the Linear adaptive policy with a fitted
// threshold (Chatterjea & Havinga).
func NewLinearPolicy(threshold float64) Policy { return policy.NewLinear(threshold) }

// NewDeviationPolicy returns the Deviation adaptive policy with a fitted
// threshold (LiteSense).
func NewDeviationPolicy(threshold float64) Policy { return policy.NewDeviation(threshold) }

// PolicyKind names a threshold-based adaptive policy for fitting.
type PolicyKind = policy.AdaptiveKind

// The fit-able adaptive policies.
const (
	LinearPolicy    = policy.KindLinear
	DeviationPolicy = policy.KindDeviation
)

// FitResult reports a fitted threshold and its achieved collection rate.
type FitResult = policy.FitResult

// FitPolicy bisects for the threshold at which the policy's mean collection
// rate over the training sequences matches targetRate (the paper's offline
// training step).
func FitPolicy(kind PolicyKind, train [][][]float64, targetRate float64) (FitResult, error) {
	return policy.Fit(kind, train, targetRate)
}

// SkipRNNModel is a trained neural sampling policy (§5.5).
type SkipRNNModel = policy.SkipRNNModel

// SkipRNNTrainConfig controls Skip RNN training.
type SkipRNNTrainConfig = policy.SkipRNNTrainConfig

// TrainSkipRNN trains the GRU predictor and sampling gate on the training
// sequences; use FitBias on the result to target a budget.
func TrainSkipRNN(train [][][]float64, cfg SkipRNNTrainConfig) (*SkipRNNModel, error) {
	return policy.TrainSkipRNN(train, cfg)
}

// DefaultSkipRNNTrainConfig returns a training setup that converges in
// seconds on the bundled workloads.
func DefaultSkipRNNTrainConfig() SkipRNNTrainConfig { return policy.DefaultSkipRNNTrainConfig() }

// ---- Datasets ----

// Dataset is a labeled collection of sensing sequences.
type Dataset = dataset.Dataset

// DatasetMeta mirrors one row of the paper's Table 3.
type DatasetMeta = dataset.Meta

// DatasetOptions controls dataset generation (seed and optional
// truncation).
type DatasetOptions = dataset.Options

// DatasetNames lists the nine evaluation workloads.
func DatasetNames() []string { return dataset.Names() }

// ReadDatasetCSV parses a dataset exported by Dataset.WriteCSV (or authored
// by hand: a header row "name,seqLen,numFeatures,numLabels,width,nonFrac"
// followed by one "label,v..." row per sequence), letting users run AGE on
// their own recorded data.
func ReadDatasetCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// LoadDataset generates one of the nine workloads.
func LoadDataset(name string, opt DatasetOptions) (*Dataset, error) { return dataset.Load(name, opt) }

// EventNames returns human-readable event labels for a dataset.
func EventNames(name string) []string { return dataset.LabelNames(name) }

// ---- Encrypted link ----

// CipherKind selects the link cipher.
type CipherKind = seccomm.CipherKind

// The two supported ciphers.
const (
	ChaCha20 = seccomm.ChaCha20Stream
	AES128   = seccomm.AES128Block
)

// Sealer encrypts payloads into wire messages.
type Sealer = seccomm.Sealer

// NewSealer builds a sealer (32-byte key for ChaCha20, 16 for AES-128).
func NewSealer(kind CipherKind, key []byte) (Sealer, error) { return seccomm.NewSealer(kind, key) }

// RoundTargetToCipher adapts a fixed target size to the cipher (§4.5):
// unchanged for stream ciphers, block-filling for AES.
func RoundTargetToCipher(target int, kind CipherKind) int {
	return seccomm.RoundTargetToCipher(target, kind)
}

// ---- Reconstruction ----

// Reconstruct rebuilds a full T-step sequence from collected measurements by
// linear interpolation, the server side of the pipeline.
func Reconstruct(indices []int, values [][]float64, T, d int) ([][]float64, error) {
	return reconstruct.Linear(indices, values, T, d)
}

// MAE returns the mean absolute error between a reconstruction and the
// ground truth.
func MAE(recon, truth [][]float64) (float64, error) { return reconstruct.MAE(recon, truth) }

// ---- Leakage analysis and the attack ----

// NMI returns the normalized mutual information between event labels and
// observed message sizes (0 = no leakage, 1 = sizes identify events).
func NMI(labels, sizes []int) float64 { return stats.NMI(labels, sizes) }

// AttackSample is one adversary observation: summary features of a window
// of same-event message sizes.
type AttackSample = attack.Sample

// BuildAttackSamples assembles attack observations from per-event observed
// sizes, as in §5.4.
func BuildAttackSamples(sizesByLabel map[int][]int, n int, rng *rand.Rand) ([]AttackSample, error) {
	return attack.BuildSamples(sizesByLabel, n, rng)
}

// AttackResult reports a cross-validated attack.
type AttackResult = attack.CVResult

// RunAttack trains and scores the AdaBoost message-size attacker with
// stratified 5-fold cross-validation.
func RunAttack(samples []AttackSample, numClasses int, rng *rand.Rand) (AttackResult, error) {
	return attack.CrossValidate(samples, numClasses, 5, attack.DefaultAdaBoostConfig(), rng)
}

// ---- End-to-end simulation ----

// EncoderKind names an encoder in simulator runs.
type EncoderKind = simulator.EncoderKind

// The evaluated encoders.
const (
	EncStandard  = simulator.EncStandard
	EncPadded    = simulator.EncPadded
	EncAGE       = simulator.EncAGE
	EncSingle    = simulator.EncSingle
	EncUnshifted = simulator.EncUnshifted
	EncPruned    = simulator.EncPruned
)

// SimulationConfig configures an end-to-end run.
type SimulationConfig = simulator.RunConfig

// SimulationResult is a run's outcome: error, energy, violations, and the
// attacker-observable message sizes.
type SimulationResult = simulator.RunResult

// SocketResult is a socket-mode run's outcome: server-side error plus the
// attacker-observable message sizes.
type SocketResult = simulator.SocketResult

// Simulate runs the full pipeline in-process under an energy budget.
//
// Deprecated: Use SimulateContext, which takes a caller context so a long
// sweep can be cancelled between sequences. Simulate remains as a thin
// wrapper over SimulateContext with context.Background() and will not be
// removed.
func Simulate(cfg SimulationConfig) (*SimulationResult, error) {
	return SimulateContext(context.Background(), cfg)
}

// SimulateContext is Simulate under a caller context, mirroring
// SimulateFleetContext: cancellation is honored between sequences, and the
// partial result folded so far is returned alongside the cancellation
// error.
func SimulateContext(ctx context.Context, cfg SimulationConfig) (*SimulationResult, error) {
	return simulator.RunContext(ctx, cfg)
}

// SimulateOverSocket runs the pipeline through a real TCP loopback
// connection (sensor and server as separate actors).
//
// Deprecated: Use SimulateOverSocketContext, which takes a caller context
// that closes the listener and both live connections on cancellation.
// SimulateOverSocket remains as a thin wrapper over it with
// context.Background() and will not be removed.
func SimulateOverSocket(cfg SimulationConfig) (*SocketResult, error) {
	return SimulateOverSocketContext(context.Background(), cfg)
}

// SimulateOverSocketContext is SimulateOverSocket under a caller context,
// mirroring SimulateFleetContext: cancellation closes the listener and both
// live connections and reports the cancellation as the run's error.
func SimulateOverSocketContext(ctx context.Context, cfg SimulationConfig) (*SocketResult, error) {
	return simulator.RunOverSocketContext(ctx, cfg)
}

// FleetConfig drives a multi-sensor deployment: the dataset's sequences are
// partitioned across concurrent sensors, each with its own key and TCP
// connection to the server. Transport knobs (DialTimeout, DialAttempts,
// DialBackoff, IOTimeout, WriteAttempts, Timeout) bound every network
// operation; zero values select generous defaults.
type FleetConfig = simulator.FleetConfig

// FleetResult aggregates a fleet run: per-sensor error plus the pooled
// eavesdropper view. Sensors holds one FleetSensorStatus per sensor, so a
// dead sensor degrades the result instead of aborting the run.
type FleetResult = simulator.FleetResult

// FleetSensorStatus records one sensor's delivery outcome: sequences
// assigned vs delivered, dial attempts, and any sensor- or server-side error.
type FleetSensorStatus = simulator.FleetSensorStatus

// FleetFaults injects transport failures into a fleet run (sensors that
// never dial, die or stall mid-stream, or whose link the server drops) for
// resilience testing.
type FleetFaults = simulator.FleetFaults

// SimulateFleet runs a concurrent multi-sensor deployment (FarmBeats fields,
// ZebraNet herds) against one server. Per-sensor failures land in
// FleetResult.Sensors; it returns an error only when setup fails, every
// sensor fails, or the run is cancelled.
//
// Deprecated: Use SimulateFleetContext, which takes a caller context that
// closes the listener and every live connection on cancellation and returns
// the partial FleetResult folded so far. SimulateFleet remains as a thin
// wrapper over it with context.Background() and will not be removed.
func SimulateFleet(cfg FleetConfig) (*FleetResult, error) {
	return SimulateFleetContext(context.Background(), cfg)
}

// SimulateFleetContext is SimulateFleet under a caller context: cancellation
// closes the listener and every live connection, and the partial FleetResult
// is returned alongside the cancellation error.
func SimulateFleetContext(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	return simulator.RunFleetContext(ctx, cfg)
}

// ---- Long-lived ingest server and client ----

// Server is the long-lived sharded ingest server the fleet simulator runs
// on: accepted connections are spread across accept loops and per-shard
// worker pools with bounded queues, overload is answered with a typed
// reject instead of an unbounded goroutine, and sessions keyed by sensor ID
// support resume after a dropped link. Lifecycle mirrors net/http.Server:
// Listen, then Serve (blocking), then Drain or Close; Serve returns
// ErrServerClosed after a deliberate stop.
type Server = ingest.Server

// ServerConfig sizes a Server: the session Handler, shard and worker
// counts, per-shard queue depth, I/O deadlines, and an optional metrics
// registry for the ingest.* instrument family. Zero values select sensible
// defaults.
type ServerConfig = ingest.ServerConfig

// NewServer validates cfg and returns an idle Server; call Listen then
// Serve to start it.
func NewServer(cfg ServerConfig) (*Server, error) { return ingest.NewServer(cfg) }

// Client streams one sensor's sealed frames to an ingest Server, redialing
// and resuming from the server's delivered index on transport failures and
// backing off on typed rejects.
type Client = ingest.Client

// ClientConfig configures a Client: the server address, the sensor ID sent
// in the hello, dial/write/reconnect/reject budgets, and an optional
// metrics registry for the ingest.client.* instrument family. Zero values
// select the fleet simulator's historical defaults.
type ClientConfig = ingest.ClientConfig

// ClientStats counts one Run's transport work, for callers that fold
// delivery accounting into their own reporting.
type ClientStats = ingest.ClientStats

// FrameSource produces the sealed frames one Client run streams; Seek
// positions it at the server's resume index after a reconnect.
type FrameSource = ingest.FrameSource

// NewClient returns a Client for cfg (defaults applied).
func NewClient(cfg ClientConfig) *Client { return ingest.NewClient(cfg) }

// ClientOptions is the grouped form of ClientConfig: the same fields
// organized by concern (Dial, Write, Retry, Pace) so call sites read as
// policy rather than a flat knob list. Config and Options convert between
// the two surfaces losslessly; existing ClientConfig callers need not move.
type ClientOptions = ingest.ClientOptions

// DialOptions groups a client's connection-establishment policy: per-attempt
// timeout, attempt budget, and the jittered backoff between attempts.
type DialOptions = ingest.DialOptions

// WriteOptions groups a client's frame-write policy: the per-frame I/O
// deadline, the retry budget for short writes, and the batching factor.
type WriteOptions = ingest.WriteOptions

// RetryOptions groups a client's recovery budgets: reconnect-and-resume
// attempts after a dropped link and retry attempts/backoff for typed
// transient rejects.
type RetryOptions = ingest.RetryOptions

// PaceOptions is the release-pacing discipline inside ClientOptions; it is
// the same type as PacerConfig under the grouped naming convention.
type PaceOptions = ingest.PaceOptions

// NewClientFromOptions is NewClient for the grouped options surface.
func NewClientFromOptions(opts ClientOptions) *Client { return ingest.NewClientFromOptions(opts) }

// IngestHandler is the server-side application: it opens a Session per
// accepted sensor connection and hears about rejected and unattributable
// ones.
type IngestHandler = ingest.Handler

// IngestHandlerFuncs adapts free functions to an IngestHandler.
type IngestHandlerFuncs = ingest.HandlerFuncs

// IngestSession consumes one sensor connection's frames.
type IngestSession = ingest.Session

// IngestStatus is the typed accept/reject code the server sends in every
// hello and final ack.
type IngestStatus = ingest.Status

// The wire statuses. Transient() reports which rejects a client may retry.
const (
	StatusAccept     = ingest.StatusAccept
	StatusOverloaded = ingest.StatusOverloaded
	StatusDuplicate  = ingest.StatusDuplicate
	StatusDraining   = ingest.StatusDraining
	StatusRefused    = ingest.StatusRefused
)

// RejectedError is the error a Client run reports when the server answers
// its hello with a reject status.
type RejectedError = ingest.RejectedError

// ProtocolError reports a malformed wire value from the peer (an unknown
// ack status or frame marker); it is never retried.
type ProtocolError = ingest.ProtocolError

// ---- Multi-node ingest cluster ----

// Cluster is a gateway fronting N in-process ingest nodes. Sensors connect
// to the gateway's single address and speak the unmodified ingest wire
// protocol; the gateway reads each connection's hello, routes the sensor to
// a node by consistent hash (bounded-load variant) with affinity to
// wherever the sensor's session already lives, and hands the connection
// itself to that in-process node, which serves the rest of the session on
// it. Sessions migrate between nodes on resume, drain,
// and rebalance, so a sensor that reconnects after a node change continues
// from its delivered index. Lifecycle: NewCluster, Start, then Drain or
// Close; AddNode/DrainNode/KillNode reshape the node set live.
type Cluster = cluster.Cluster

// ClusterConfig sizes a Cluster: node count (or a per-node spec builder),
// consistent-hash geometry, the gateway's connection cap and I/O deadline,
// and the shared session TTL/clock every node registry and the gateway's
// locator map agree on. Zero values select sensible defaults.
type ClusterConfig = cluster.Config

// ClusterNodeSpec is one node's build recipe: its ingest ServerConfig plus
// an optional CursorStore migrations carry staged cursors between.
type ClusterNodeSpec = cluster.NodeSpec

// CursorStore is the staging-tier half of session migration: export
// captures and removes a sensor's staged cursor, import resumes it on the
// receiving node. *staging.Stage and the projection engine implement it.
type CursorStore = cluster.CursorStore

// ClusterStats is a point-in-time snapshot of the cluster's routing state.
type ClusterStats = cluster.Stats

// ClusterNodeInfo describes one node in a ClusterStats snapshot.
type ClusterNodeInfo = cluster.NodeInfo

// ErrClusterClosed marks use of a Cluster after Close or Drain.
var ErrClusterClosed = cluster.ErrClosed

// NewCluster validates cfg and returns an idle Cluster; call Start to bring
// the nodes up and open the gateway listener.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ---- Frame-release pacing (timing side-channel defense) ----

// PaceMode selects a Client's frame-release discipline. AGE's fixed-size
// frames close the size channel; PaceConstant/PaceJitter close the timing
// channel too, releasing one wire frame per (optionally jittered) interval
// and covering empty slots with sealed dummy frames.
type PaceMode = ingest.PaceMode

// The release disciplines.
const (
	PaceOff      = ingest.PaceOff
	PaceLive     = ingest.PaceLive
	PaceConstant = ingest.PaceConstant
	PaceJitter   = ingest.PaceJitter
)

// PacerConfig configures the client-side pacer (ClientConfig.Pacer): the
// mode, release interval, jitter fraction, schedule seed, and the sealed
// dummy-frame generator.
type PacerConfig = ingest.PacerConfig

// ParsePaceMode parses a mode name ("off", "live", "constant", "jitter").
func ParsePaceMode(s string) (PaceMode, error) { return ingest.ParsePaceMode(s) }

// TimedFrameSource is a FrameSource with a data-driven availability
// schedule; pacing modes other than PaceOff consult it to decide when each
// frame "happened".
type TimedFrameSource = ingest.TimedSource

// ErrDummyFrame is returned by an IngestSession's Frame to report a pacer
// dummy: the server drops the frame without advancing the sensor's
// delivered index.
var ErrDummyFrame = ingest.ErrDummyFrame

// MarkFrameReal, MarkFrameDummy, and UnmarkFrame implement the pacer's
// in-payload marker convention: sources seal marked payloads, receiving
// sessions unmark after unsealing and drop dummies with ErrDummyFrame.
func MarkFrameReal(payload []byte) []byte { return ingest.MarkReal(payload) }
func MarkFrameDummy(filler []byte) []byte { return ingest.MarkDummy(filler) }
func UnmarkFrame(payload []byte) ([]byte, bool, error) {
	return ingest.Unmark(payload)
}

// FrameError attributes a server-side session failure to the frame index
// being read when it happened.
type FrameError = ingest.FrameError

// Terminal marks err as non-resumable: a Client run that sees it stops
// without spending its reconnect budget. FrameSource implementations use it
// to distinguish "my data is broken" from "the link is broken".
func Terminal(err error) error { return ingest.Terminal(err) }

// IsTerminal reports whether err (or anything it wraps) was marked
// Terminal.
func IsTerminal(err error) bool { return ingest.IsTerminal(err) }

// ---- Metrics ----

// MetricsRegistry collects the pipeline's observation-only instruments
// (codec latency, transport counters, the ingest.* server family). Pass one
// in SimulationConfig, FleetConfig, ServerConfig, or ClientConfig and read
// it back with Snapshot. A nil registry disables collection at zero cost.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry's instruments.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// EnergyModel holds the MSP430 FR5994 + HM-10 BLE trace constants.
type EnergyModel = energy.Model

// DefaultEnergyModel returns the constants derived from the paper.
func DefaultEnergyModel() EnergyModel { return energy.Default() }
