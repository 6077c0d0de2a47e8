// Package traffic is the public API of this library: a Go implementation of
// the scalable heavy-hitter traffic measurement algorithms from Estan &
// Varghese, "New Directions in Traffic Measurement and Accounting".
//
// The library identifies and accurately measures the large flows ("heavy
// hitters") on a link using a small, fixed amount of fast memory, instead
// of keeping per-flow state for millions of flows. Two algorithms are
// provided, both with relative error proportional to 1/M in the memory M
// (classical sampling only achieves 1/sqrt(M)):
//
//   - sample and hold: sample each byte with probability p = O/T; once a
//     flow is sampled, count every one of its bytes exactly.
//   - multistage filters: hash each flow into d stages of counters; flows
//     whose counters reach the threshold at every stage are counted
//     exactly, with zero false negatives.
//
// # Quick start
//
//	def := traffic.FiveTuple
//	alg, err := traffic.NewMultistageFilter(traffic.MultistageConfig{
//	    Stages: 4, Buckets: 4096, Entries: 3584,
//	    Threshold: 1 << 20, Conservative: true, Shield: true, Preserve: true,
//	})
//	if err != nil { ... }
//	dev := traffic.NewDevice(alg, def, traffic.NewAdaptor(traffic.MultistageAdaptation()))
//	_, err = traffic.Replay(source, dev)
//	for _, report := range dev.Reports() {
//	    for _, est := range report.Estimates { ... }
//	}
//
// Sample and hold and the multistage filters each run one packet kernel,
// which works on batches: Replay hands a Device whole batches (see
// WithBatchSize), and Algorithm.Process is a batch of one, so per-packet
// and batched replay produce identical reports.
//
// Sources can be synthetic traces (NewGenerator with a Preset
// configuration), files in this library's compact trace format
// (NewTraceReader), or pcap captures (see internal/pcap via cmd/tracegen).
//
// The packages behind this facade also implement everything needed to
// reproduce the paper's evaluation: a Sampled NetFlow baseline, the
// analytic bounds of Sections 4-5, threshold accounting, and drivers for
// every table and figure (cmd/experiments).
package traffic

import (
	"io"

	"repro/internal/accounting"
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/core/device"
	"repro/internal/core/multistage"
	"repro/internal/core/sampleandhold"
	"repro/internal/exact"
	"repro/internal/flow"
	"repro/internal/leakybucket"
	"repro/internal/live"
	"repro/internal/netflow"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ---- Packets and flows ----

// Packet is one packet observation; see the field documentation in
// internal/flow.
type Packet = flow.Packet

// FlowKey is a compact comparable flow identifier.
type FlowKey = flow.Key

// FlowDefinition extracts flow identifiers from packets.
type FlowDefinition = flow.Definition

// The three flow definitions evaluated in the paper.
var (
	// FiveTuple defines flows by source/destination address, ports and
	// protocol (TCP-connection granularity, like NetFlow).
	FiveTuple FlowDefinition = flow.FiveTuple{}
	// DstIP defines flows by destination address (DoS detection).
	DstIP FlowDefinition = flow.DstIP{}
	// ASPair defines flows by source and destination AS (traffic matrix).
	ASPair FlowDefinition = flow.ASPair{}
)

// ---- Algorithms ----

// Estimate is one flow's reported traffic for a measurement interval.
type Estimate = core.Estimate

// Algorithm is a traffic measurement algorithm; implementations include
// sample and hold, multistage filters, sampled NetFlow and ordinary
// sampling.
type Algorithm = core.Algorithm

// ProcessBatch feeds a batch of packets to an algorithm. Sample and hold
// and the multistage filters each have one packet kernel that works on
// batches — Process is a batch of one — so ProcessBatch is observably
// equivalent to per-packet Process calls but amortizes hashing and cost
// accounting across the batch. Other algorithms get per-packet Process
// calls.
func ProcessBatch(a Algorithm, keys []FlowKey, sizes []uint32) {
	core.ProcessBatch(a, nil, keys, sizes)
}

// SampleAndHoldConfig configures sample and hold (Section 3.1 of the
// paper).
type SampleAndHoldConfig = sampleandhold.Config

// NewSampleAndHold creates a sample-and-hold algorithm.
func NewSampleAndHold(cfg SampleAndHoldConfig) (Algorithm, error) {
	return sampleandhold.New(cfg)
}

// MultistageConfig configures a multistage filter (Section 3.2).
type MultistageConfig = multistage.Config

// NewMultistageFilter creates a (parallel or serial) multistage filter.
func NewMultistageFilter(cfg MultistageConfig) (Algorithm, error) {
	return multistage.New(cfg)
}

// NetFlowConfig configures the Sampled NetFlow baseline.
type NetFlowConfig = netflow.Config

// NewSampledNetFlow creates the Sampled NetFlow baseline the paper
// compares against.
func NewSampledNetFlow(cfg NetFlowConfig) (Algorithm, error) {
	return netflow.New(cfg)
}

// OrdinarySamplingConfig configures the classical-sampling baseline.
type OrdinarySamplingConfig = sampling.Config

// NewOrdinarySampling creates the classical random-sampling baseline of
// Table 1.
func NewOrdinarySampling(cfg OrdinarySamplingConfig) (Algorithm, error) {
	return sampling.New(cfg)
}

// ---- Threshold adaptation ----

// AdaptConfig holds the threshold adaptation constants of Figure 5.
type AdaptConfig = adapt.Config

// Adaptor applies the ADAPTTHRESHOLD algorithm between intervals.
type Adaptor = adapt.Adaptor

// NewAdaptor creates an adaptor; see SampleAndHoldAdaptation and
// MultistageAdaptation for the paper's constants.
func NewAdaptor(cfg AdaptConfig) *Adaptor { return adapt.New(cfg) }

// SampleAndHoldAdaptation returns the paper's adaptation constants for
// sample and hold (target 90%, adjustup 3, adjustdown 1).
func SampleAndHoldAdaptation() AdaptConfig { return adapt.SampleAndHoldDefaults() }

// MultistageAdaptation returns the paper's adaptation constants for
// multistage filters (target 90%, adjustup 3, adjustdown 0.5).
func MultistageAdaptation() AdaptConfig { return adapt.MultistageDefaults() }

// ---- Devices ----

// Device is a complete measurement device: algorithm + flow definition +
// optional threshold adaptation. It implements Consumer.
type Device = device.Device

// IntervalReport is one measurement interval's output. Device and Pipeline
// both accumulate them, with the same shape and the same estimate ordering
// (descending bytes, ties by descending key).
type IntervalReport = core.IntervalReport

// NewDevice assembles a measurement device; adaptor may be nil for a fixed
// threshold.
func NewDevice(alg Algorithm, def FlowDefinition, adaptor *Adaptor) *Device {
	return device.New(alg, def, adaptor)
}

// ---- Traces ----

// TraceMeta describes a trace: link capacity, measurement interval, length.
type TraceMeta = trace.Meta

// Source is a stream of packets in time order.
type Source = trace.Source

// Consumer receives replayed packets and interval boundaries.
type Consumer = trace.Consumer

// ReplayOption customizes Replay; see WithBatchSize and WithProgress.
type ReplayOption = trace.ReplayOption

// WithBatchSize sets Replay's delivery batch size; n <= 0 selects
// DefaultBatchSize and n == 1 delivers packets one at a time.
func WithBatchSize(n int) ReplayOption { return trace.WithBatchSize(n) }

// WithProgress registers fn to be called with the cumulative packet count
// after every delivered batch and once at the end of the replay.
func WithProgress(fn func(packets int)) ReplayOption { return trace.WithProgress(fn) }

// WithStop registers a hook polled at batch boundaries; when it returns
// true, Replay returns ErrReplayStopped — the orderly way for a signal
// handler to end a replay mid-trace and drain what was already measured.
func WithStop(fn func() bool) ReplayOption { return trace.WithStop(fn) }

// ErrReplayStopped is returned by Replay when a WithStop hook ended it early.
var ErrReplayStopped = trace.ErrStopped

// Replay streams a trace into a consumer (typically a *Device or a
// *Pipeline), calling EndInterval at each measurement interval boundary,
// and returns the number of packets replayed. Packets are delivered in
// batches via the consumer's PacketBatch fast path when it has one; batches
// never span interval boundaries, so reports are identical at any batch
// size — the batched path only amortizes per-packet call, channel and
// hashing overhead.
func Replay(src Source, c Consumer, opts ...ReplayOption) (int, error) {
	return trace.Replay(src, c, opts...)
}

// BatchConsumer is a Consumer with a batched packet path; Device, MultiDevice
// and Pipeline all implement it.
type BatchConsumer = trace.BatchConsumer

// DefaultBatchSize is the batch size Replay uses unless overridden with
// WithBatchSize.
const DefaultBatchSize = trace.DefaultBatchSize

// GenConfig configures the synthetic trace generator.
type GenConfig = trace.GenConfig

// Preset returns a generator configuration calibrated to one of the
// paper's traces: "MAG+", "MAG", "IND" or "COS".
func Preset(name string) (GenConfig, error) { return trace.Preset(name) }

// NewGenerator creates a synthetic trace source from a configuration.
func NewGenerator(cfg GenConfig) (Source, error) { return trace.NewGenerator(cfg) }

// NewSliceSource wraps packets already in memory as a Source.
func NewSliceSource(meta TraceMeta, pkts []Packet) Source {
	return trace.NewSliceSource(meta, pkts)
}

// NewTraceReader reads this library's compact binary trace format.
func NewTraceReader(r io.Reader) (Source, error) { return trace.NewReader(r) }

// WriteTrace writes a source to the compact binary trace format and
// returns the number of packets written.
func WriteTrace(w io.Writer, src Source) (int, error) { return trace.WriteAll(w, src) }

// ---- Ground truth ----

// ExactCounter keeps exact per-flow counts — the unscalable ideal device,
// useful as an oracle in tests and evaluations.
type ExactCounter = exact.Counter

// NewExactCounter creates an exact counter for a flow definition.
func NewExactCounter(def FlowDefinition) *ExactCounter { return exact.New(def) }

// ---- Threshold accounting ----

// AccountingParams sets a threshold-accounting tariff: usage-based pricing
// for flows above Z of the link capacity, a flat duration-based fee for the
// rest (Section 1.2 of the paper).
type AccountingParams = accounting.Params

// IntervalBill is one interval's bill.
type IntervalBill = accounting.IntervalBill

// Ledger accumulates bills across intervals.
type Ledger = accounting.Ledger

// NewLedger creates an empty ledger.
func NewLedger() *Ledger { return accounting.NewLedger() }

// BillInterval computes the bill for one interval from a device report.
// Because the paper's algorithms report provable lower bounds, the usage
// charges never exceed what exact metering would bill.
func BillInterval(interval int, ests []Estimate, capacity float64, p AccountingParams) (IntervalBill, error) {
	return accounting.BillInterval(interval, ests, capacity, p)
}

// ---- Extensions beyond the paper ----

// CountMinConfig configures the Count-Min sketch baseline — the modern
// descendant of the multistage filter's counter arrays.
type CountMinConfig = sketch.CountMinConfig

// NewCountMin creates a Count-Min heavy hitter tracker. Unlike the paper's
// algorithms its estimates are upper bounds (it can overcharge).
func NewCountMin(cfg CountMinConfig) (Algorithm, error) { return sketch.NewCountMin(cfg) }

// SpaceSavingConfig configures the Space-Saving baseline.
type SpaceSavingConfig = sketch.SpaceSavingConfig

// NewSpaceSaving creates a Space-Saving heavy hitter tracker (bounded
// counter table with least-count eviction; overestimates by at most
// total/K).
func NewSpaceSaving(cfg SpaceSavingConfig) (Algorithm, error) { return sketch.NewSpaceSaving(cfg) }

// PipelineConfig configures a sharded measurement pipeline.
type PipelineConfig = pipeline.Config

// Pipeline shards packets across parallel algorithm instances by flow, the
// way a multi-queue NIC shards across cores, and merges interval reports.
// Packets are handed to lanes in batches (PipelineConfig.BatchSize), one
// ring handoff per batch. Lane workers are supervised: a panicking
// algorithm is quarantined (or restarted with
// PipelineConfig.RestartOnPanic) and the pipeline keeps serving.
type Pipeline = pipeline.Pipeline

// OverloadPolicy selects what a Pipeline's producer does when a lane queue
// is full: block, shed, or degrade. See the constants below.
type OverloadPolicy = pipeline.OverloadPolicy

// The overload policies, in order of how much they preserve: OverloadBlock
// is lossless backpressure (the default), OverloadDropNewest and
// OverloadDropOldest shed whole batches (keeping the oldest or the newest
// traffic respectively), and OverloadDegrade probabilistically subsamples
// the overflowing batch so estimates thin out smoothly instead of whole
// bursts vanishing.
const (
	OverloadBlock      = pipeline.Block
	OverloadDropNewest = pipeline.DropNewest
	OverloadDropOldest = pipeline.DropOldest
	OverloadDegrade    = pipeline.Degrade
)

// OverloadPolicyByName maps the command-line spellings ("block",
// "drop-newest", "drop-oldest", "degrade"; "" means block) to policies.
func OverloadPolicyByName(name string) (OverloadPolicy, error) {
	return pipeline.OverloadPolicyByName(name)
}

// NewPipeline builds and starts a sharded pipeline; Close it when done.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return pipeline.New(cfg) }

// LeakyBucket is the alternative large-flow definition from the paper's
// technical report: a flow is large when it violates a (rate, burst)
// envelope, with no interval boundaries.
type LeakyBucket = leakybucket.Descriptor

// LeakyBucketDetectorConfig configures a leaky-bucket large-flow detector.
type LeakyBucketDetectorConfig = leakybucket.Config

// LeakyBucketDetector flags flows violating a leaky bucket descriptor
// using multistage-filtered draining buckets (no false negatives).
type LeakyBucketDetector = leakybucket.Detector

// NewLeakyBucketDetector creates a leaky-bucket large-flow detector.
func NewLeakyBucketDetector(cfg LeakyBucketDetectorConfig) (*LeakyBucketDetector, error) {
	return leakybucket.NewDetector(cfg)
}

// MultiDevice fans one packet stream out to several devices, one per flow
// definition of interest, as the paper's Section 1.2 deployment envisages.
type MultiDevice = device.Multi

// NewMultiDevice groups devices into one Consumer.
func NewMultiDevice(devices ...*Device) *MultiDevice { return device.NewMulti(devices...) }

// LiveRunner drives a device from a live packet feed, closing measurement
// intervals on wall-clock boundaries; safe for concurrent packet sources.
// Its Reports method exposes the wrapped consumer's accumulated reports.
type LiveRunner = live.Runner

// NewLiveRunner wraps a Device (or MultiDevice) for live operation.
func NewLiveRunner(c Consumer) *LiveRunner { return live.NewRunner(c) }

// ---- Telemetry ----
//
// Every algorithm in this library maintains cheap atomic counters as it
// runs: packets and bytes processed, flow-memory occupancy, filter passes
// (entry creations — the false-positive candidates of the paper's Section
// 4.2 analysis), drops on full memory, entries preserved and evicted at
// interval boundaries, the threshold trajectory, and the memory-model
// reference totals. Snapshots are safe to take from any goroutine while
// traffic is flowing, which is what makes live monitoring of a running
// Device or Pipeline possible (see cmd/hhdevice's -listen flag).

// AlgorithmStats is a point-in-time snapshot of one algorithm's counters.
type AlgorithmStats = telemetry.AlgorithmSnapshot

// MemStats is the memory-model reference totals inside an AlgorithmStats.
type MemStats = telemetry.MemSnapshot

// DeviceStats is a Device's snapshot: its algorithm's counters plus the
// flow definition and report count. Read it with Device.Stats.
type DeviceStats = telemetry.DeviceSnapshot

// LaneStats is one pipeline lane's counters: batches handed over, queue
// high-water mark, flush stalls, shed and degraded traffic, panics,
// restarts, and the lane's supervision health.
type LaneStats = telemetry.LaneSnapshot

// PipelineStats is a Pipeline's snapshot: per-lane counters plus each lane
// algorithm's counters. Read it with Pipeline.Stats.
type PipelineStats = telemetry.PipelineSnapshot

// HealthStatus grades a running Device or Pipeline for operational
// monitoring: HealthOK, HealthDegraded (still serving but shedding load,
// running quarantined lanes, or rejecting flow-memory entries) or
// HealthUnhealthy (no longer producing useful measurements). Derive it with
// Pipeline.Health or the snapshots' Health methods; cmd/hhdevice serves it
// on /healthz.
type HealthStatus = telemetry.HealthStatus

// The health grades, from best to worst.
const (
	HealthOK        = telemetry.HealthOK
	HealthDegraded  = telemetry.HealthDegraded
	HealthUnhealthy = telemetry.HealthUnhealthy
)

// LaneHealth is one pipeline lane's supervision state: healthy, restarted
// after a panic, or quarantined.
type LaneHealth = telemetry.LaneHealth

// The lane supervision states.
const (
	LaneHealthy     = telemetry.LaneHealthy
	LaneRestarted   = telemetry.LaneRestarted
	LaneQuarantined = telemetry.LaneQuarantined
)

// MemoryPressure is an Algorithm that reports how many entries its flow
// memory refused because it was full (see SampleAndHoldConfig.MaxEntries
// and MultistageConfig.MaxEntries). Devices feed the per-interval rejection
// count into threshold adaptation so a saturated memory raises the
// threshold even when interval-boundary evictions mask the pressure.
type MemoryPressure = core.MemoryPressure

// RunnerStats is a LiveRunner's snapshot: packets fed, intervals closed,
// last tick time. Read it with LiveRunner.Stats.
type RunnerStats = telemetry.RunnerSnapshot

// Instrumented is an Algorithm that exposes its telemetry; every algorithm
// constructed by this package implements it.
type Instrumented = core.Instrumented

// Snapshot captures an algorithm's telemetry. For algorithms constructed by
// this package the snapshot is taken from live atomic counters and is safe
// concurrently with traffic; for a foreign Algorithm implementation it is
// synthesized from the interface accessors (marked Stale, and only safe
// when the algorithm is quiescent).
func Snapshot(alg Algorithm) AlgorithmStats { return core.Snapshot(alg) }
