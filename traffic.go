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
// configuration) or packets already in memory (NewSliceSource); cmd/tracegen
// writes this library's compact trace format, from the generator or from
// pcap captures, and cmd/hhdevice replays it.
//
// The packages behind this facade also implement everything needed to
// reproduce the paper's evaluation: a Sampled NetFlow baseline, the
// analytic bounds of Sections 4-5 (with device dimensioning), threshold
// accounting, and drivers for every table and figure (cmd/experiments).
// Programs that need more than this facade — the Count-Min and
// Space-Saving baselines, the leaky-bucket detector, the trace file format
// — import those packages directly; the facade carries only what its
// callers use.
package traffic

import (
	"repro/internal/accounting"
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/core/device"
	"repro/internal/core/multistage"
	"repro/internal/core/sampleandhold"
	"repro/internal/exact"
	"repro/internal/flow"
	"repro/internal/netflow"
	"repro/internal/pipeline"
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
// sample and hold, multistage filters and sampled NetFlow.
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

// ---- Threshold adaptation ----

// AdaptConfig holds the threshold adaptation constants of Figure 5.
type AdaptConfig = adapt.Config

// Adaptor applies the ADAPTTHRESHOLD algorithm between intervals.
type Adaptor = adapt.Adaptor

// NewAdaptor creates an adaptor; see SampleAndHoldAdaptation and
// MultistageAdaptation for the paper's constants.
func NewAdaptor(cfg AdaptConfig) *Adaptor { return adapt.New(cfg) }

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

// ReplayOption customizes Replay; see WithBatchSize.
type ReplayOption = trace.ReplayOption

// WithBatchSize sets Replay's delivery batch size; n <= 0 selects the
// default and n == 1 delivers packets one at a time.
func WithBatchSize(n int) ReplayOption { return trace.WithBatchSize(n) }

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

// BatchConsumer is a Consumer with a batched packet path; Device and
// Pipeline both implement it.
type BatchConsumer = trace.BatchConsumer

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

// ---- Sharded pipeline ----

// PipelineConfig configures a sharded measurement pipeline.
type PipelineConfig = pipeline.Config

// Pipeline shards packets across parallel algorithm instances by flow, the
// way a multi-queue NIC shards across cores, and merges interval reports.
// Packets are handed to lanes in batches (PipelineConfig.BatchSize), one
// ring handoff per batch. Lane workers are supervised: a panicking
// algorithm is quarantined (or restarted with
// PipelineConfig.RestartOnPanic) and the pipeline keeps serving.
type Pipeline = pipeline.Pipeline

// NewPipeline builds and starts a sharded pipeline; Close it when done.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return pipeline.New(cfg) }

// OverloadBlock is the default PipelineConfig.Overload policy: lossless
// backpressure, the producer waits while a lane queue is full. The shedding
// and degrading policies are chosen with cmd/hhdevice's -overload flag.
const OverloadBlock = pipeline.Block

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
// Read it with Device.Stats or, per lane, Pipeline.Stats.
type AlgorithmStats = telemetry.AlgorithmSnapshot

// MemoryPressure is an Algorithm that reports how many entries its flow
// memory refused because it was full. Devices feed the per-interval
// rejection count into threshold adaptation so a saturated memory raises
// the threshold even when interval-boundary evictions mask the pressure.
type MemoryPressure = core.MemoryPressure
