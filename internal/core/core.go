// Package core defines the shared contract between the paper's measurement
// algorithms (sample and hold, multistage filters) and the components that
// drive them: the measurement device, the threshold adaptation logic, and
// the experiment harness.
//
// An Algorithm sees every packet of its link as a (flow key, size) pair,
// maintains a small flow memory, and at the end of each measurement interval
// reports its traffic estimates for the flows it tracked. The subpackages
// implement the two algorithms plus the flow memory they share.
//
// Each of the two algorithms has exactly one packet kernel, its
// BatchAlgorithm.ProcessBatch: a tiled pass that hashes every packet once,
// prefetches the state it will touch, then updates it. Process is a batch
// of one through that kernel, so per-packet and batched drivers produce
// identical reports. Drivers feed packets with the ProcessBatch function,
// which also serves algorithms without a batch kernel (the baselines) one
// Process call at a time.
package core

import (
	"repro/internal/flow"
	"repro/internal/memmodel"
	"repro/internal/telemetry"
)

// Estimate is one flow's reported traffic for a measurement interval.
type Estimate struct {
	Key flow.Key
	// Bytes is the algorithm's estimate of the flow's traffic in the
	// interval. For the paper's algorithms this is a provable lower bound
	// on the true traffic unless a correction factor was applied.
	Bytes uint64
	// Exact reports whether the estimate is known to be exact — true for
	// flows whose entry was preserved from the previous interval, so
	// counting started with the flow's first byte of this interval.
	Exact bool
}

// Algorithm is a traffic measurement algorithm processing one packet at a
// time. Implementations are not safe for concurrent use; a measurement
// device serializes packets the way a router line card would.
type Algorithm interface {
	// Name identifies the algorithm in reports ("sample-and-hold",
	// "multistage-filter", "sampled-netflow", "ordinary-sampling").
	Name() string
	// Process accounts one packet of size bytes belonging to the flow with
	// the given key.
	Process(key flow.Key, size uint32)
	// EndInterval closes the current measurement interval: it returns the
	// estimates for all tracked flows and performs the interval transition
	// (resetting stage counters, applying the entry preservation policy).
	EndInterval() []Estimate
	// EntriesUsed returns the number of flow memory entries currently in
	// use; the threshold adaptation algorithm of Figure 5 steers this.
	EntriesUsed() int
	// Capacity returns the flow memory capacity in entries.
	Capacity() int
	// Threshold returns the current large-flow threshold in bytes.
	Threshold() uint64
	// SetThreshold changes the threshold for subsequent packets; used by
	// dynamic threshold adaptation between intervals.
	SetThreshold(t uint64)
	// Mem returns the algorithm's memory reference accounting.
	Mem() *memmodel.Counter
}

// BatchAlgorithm is implemented by algorithms whose packet kernel works on
// whole batches: for sample and hold and the multistage filters ProcessBatch
// is the only kernel, and Process is a batch of one. ProcessBatch must be
// observably equivalent to calling Process on each (keys[i], sizes[i]) pair
// in order — same estimates, same memory accounting totals. hashes is
// either nil or holds flowmem.Hash(keys[i]) for every i, computed upstream
// (the sharded pipeline hashes each key once to pick its shard), so the
// kernel need not rehash; a kernel whose probe hash differs ignores it. The
// slices are only valid for the duration of the call; implementations must
// not retain them.
type BatchAlgorithm interface {
	Algorithm
	ProcessBatch(hashes []uint64, keys []flow.Key, sizes []uint32)
}

// ProcessBatch feeds a batch of packets to alg, using its batch kernel when
// it has one and falling back to per-packet Process otherwise. keys and
// sizes must have equal length; hashes is nil or holds flowmem.Hash of
// every key.
func ProcessBatch(alg Algorithm, hashes []uint64, keys []flow.Key, sizes []uint32) {
	if b, ok := alg.(BatchAlgorithm); ok {
		b.ProcessBatch(hashes, keys, sizes)
		return
	}
	for i, k := range keys {
		alg.Process(k, sizes[i])
	}
}

// ReportAppender is implemented by algorithms that can build their interval
// report into caller-owned memory: AppendEstimates is EndInterval with the
// destination supplied. It appends the interval's estimates to dst, performs
// the same interval transition, and returns the extended slice. Callers that
// reuse dst across intervals — the pipeline's per-lane report arenas — get a
// report path with no steady-state allocations.
type ReportAppender interface {
	Algorithm
	AppendEstimates(dst []Estimate) []Estimate
}

// AppendEstimates closes alg's interval, appending its estimates to dst when
// the algorithm supports caller-owned report memory and falling back to
// EndInterval (one allocation per call) otherwise.
func AppendEstimates(alg Algorithm, dst []Estimate) []Estimate {
	if ra, ok := alg.(ReportAppender); ok {
		return ra.AppendEstimates(dst)
	}
	return append(dst, alg.EndInterval()...)
}

// MemoryPressure is implemented by algorithms whose flow memory enforces a
// hard entry cap and counts refusals. The threshold adaptation loop reads
// the count between intervals so sustained rejection pressure raises the
// threshold (Section 5.2's closed loop) instead of going unnoticed.
type MemoryPressure interface {
	Algorithm
	// EntriesRejected returns the cumulative number of flows that qualified
	// for a flow memory entry but were refused because the memory was at
	// its hard cap.
	EntriesRejected() uint64
}

// Instrumented is implemented by algorithms that maintain live telemetry
// counters. Their snapshots are lock-free and safe to take from any
// goroutine while packets are being processed.
type Instrumented interface {
	Algorithm
	// Telemetry returns the algorithm's live counters. The returned pointer
	// is valid for the lifetime of the algorithm.
	Telemetry() *telemetry.Algorithm
}

// Snapshot returns alg's live telemetry. For an Instrumented algorithm this
// reads its atomic counters and is safe during concurrent processing; for
// any other algorithm it synthesizes a snapshot from the Algorithm
// interface (marked Stale), which must only be done while the algorithm is
// quiescent.
func Snapshot(alg Algorithm) telemetry.AlgorithmSnapshot {
	if in, ok := alg.(Instrumented); ok {
		return in.Telemetry().Snapshot()
	}
	mem := alg.Mem()
	return telemetry.AlgorithmSnapshot{
		Name:        alg.Name(),
		Packets:     mem.Packets,
		EntriesUsed: alg.EntriesUsed(),
		Capacity:    alg.Capacity(),
		Threshold:   alg.Threshold(),
		Mem: telemetry.MemSnapshot{
			SRAMReads:  mem.SRAMReads,
			SRAMWrites: mem.SRAMWrites,
			DRAMReads:  mem.DRAMReads,
			DRAMWrites: mem.DRAMWrites,
		},
		Stale: true,
	}
}

// IntervalReport is a measurement device's output for one interval. It
// lives in core so that single devices, sharded pipelines and live runners
// can all expose the same report type with the same ordering guarantees
// (estimates sorted by descending bytes, ties by descending key).
type IntervalReport struct {
	// Interval is the zero-based measurement interval index.
	Interval int
	// Threshold is the large-flow threshold that was in effect during the
	// interval.
	Threshold uint64
	// EntriesUsed is the flow memory usage at the end of the interval,
	// before the interval transition.
	EntriesUsed int
	// Estimates are the tracked flows and their traffic estimates, largest
	// first.
	Estimates []Estimate

	// index maps keys to positions in Estimates; Estimate builds it lazily
	// so repeated lookups are O(1) instead of a linear scan per call.
	index map[flow.Key]int
}

// Estimate returns the reported bytes for a flow and whether it was
// identified at all. The first call builds a key index over Estimates, so
// repeated lookups cost one map access; the index does not track later
// mutation of the Estimates slice. Not safe for concurrent use.
func (r *IntervalReport) Estimate(k flow.Key) (uint64, bool) {
	if r.index == nil {
		r.index = make(map[flow.Key]int, len(r.Estimates))
		for i, e := range r.Estimates {
			if _, dup := r.index[e.Key]; !dup {
				r.index[e.Key] = i
			}
		}
	}
	if i, ok := r.index[k]; ok {
		return r.Estimates[i].Bytes, true
	}
	return 0, false
}
