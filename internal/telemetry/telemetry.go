// Package telemetry gives a running measurement device the self-accounting
// the paper's evaluation computes offline: how many packets and bytes each
// algorithm instance processed, how full its flow memory is, how many flows
// passed the filter into flow memory (the candidate set whose excess over
// the true large flows is Section 4.2's false positives), how the threshold
// moved across intervals, and what the per-lane batching machinery of a
// sharded pipeline is doing.
//
// All hot-path counters are lock-free atomics so a snapshot can be taken
// from any goroutine — an expvar handler, a monitoring loop — while packets
// are being processed. Algorithms fold a whole batch into the counters with
// a handful of atomic operations, so the batched hot path stays
// allocation-free and its cost is unchanged to within noise.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/memmodel"
)

// Algorithm holds the live counters of one algorithm instance. The zero
// value is ready to use; Init sets the static identity fields. Writers (the
// algorithm) must be a single goroutine, as required by core.Algorithm;
// readers may call Snapshot concurrently from any goroutine.
type Algorithm struct {
	name     string
	capacity int64

	packets      atomic.Uint64
	bytes        atomic.Uint64
	filterPasses atomic.Uint64
	drops        atomic.Uint64
	preserved    atomic.Uint64
	evictions    atomic.Uint64
	intervals    atomic.Uint64
	entriesUsed  atomic.Int64
	threshold    atomic.Uint64

	// Mirrors of the algorithm's memmodel totals, refreshed by Observe. The
	// counts are monotonic and written by one goroutine, so plain atomic
	// stores of the running totals are exact.
	sramReads, sramWrites atomic.Uint64
	dramReads, dramWrites atomic.Uint64

	mu         sync.Mutex
	trajectory []uint64 // threshold in effect during each closed interval
}

// Init records the static identity of the instrumented algorithm and its
// starting threshold. Call it once, before any packets.
func (a *Algorithm) Init(name string, capacity int, threshold uint64) {
	a.name = name
	a.capacity = int64(capacity)
	a.threshold.Store(threshold)
}

// Observe folds a processed batch (or a single packet; n = 1) into the
// counters: n packets of total size bytes, the algorithm's running memory
// reference totals, and the current flow memory occupancy.
func (a *Algorithm) Observe(n, bytes uint64, cost memmodel.Counter, entriesUsed int) {
	a.packets.Add(n)
	a.bytes.Add(bytes)
	a.sramReads.Store(cost.SRAMReads)
	a.sramWrites.Store(cost.SRAMWrites)
	a.dramReads.Store(cost.DRAMReads)
	a.dramWrites.Store(cost.DRAMWrites)
	a.entriesUsed.Store(int64(entriesUsed))
}

// FilterPass records one flow earning a flow memory entry — by passing the
// multistage filter, being sampled by sample and hold, or being picked up
// by a sampling baseline. The excess of this count over the number of true
// large flows is the false positive load of Section 4.2.
func (a *Algorithm) FilterPass() { a.filterPasses.Add(1) }

// FilterPasses records n flows earning entries at once (batched paths).
func (a *Algorithm) FilterPasses(n uint64) { a.filterPasses.Add(n) }

// Drop records a flow that qualified for an entry but found the flow
// memory full; threshold adaptation exists to keep this at zero.
func (a *Algorithm) Drop() { a.drops.Add(1) }

// SetThreshold records a threshold change (initially from Init, then from
// dynamic adaptation between intervals).
func (a *Algorithm) SetThreshold(t uint64) { a.threshold.Store(t) }

// ObserveInterval records an interval transition: the threshold that was in
// effect, how many entries were preserved into the next interval, and how
// many were evicted.
func (a *Algorithm) ObserveInterval(threshold uint64, preserved, evicted int) {
	a.intervals.Add(1)
	a.preserved.Add(uint64(preserved))
	a.evictions.Add(uint64(evicted))
	a.entriesUsed.Store(int64(preserved))
	a.mu.Lock()
	a.trajectory = append(a.trajectory, threshold)
	a.mu.Unlock()
}

// Snapshot returns a consistent-enough copy of the counters for reporting.
// Individual fields are each exact; fields read microseconds apart may
// straddle a packet, which is fine for monitoring.
func (a *Algorithm) Snapshot() AlgorithmSnapshot {
	s := AlgorithmSnapshot{
		Name:         a.name,
		Capacity:     int(a.capacity),
		Packets:      a.packets.Load(),
		Bytes:        a.bytes.Load(),
		FilterPasses: a.filterPasses.Load(),
		Drops:        a.drops.Load(),
		Preserved:    a.preserved.Load(),
		Evictions:    a.evictions.Load(),
		Intervals:    a.intervals.Load(),
		EntriesUsed:  int(a.entriesUsed.Load()),
		Threshold:    a.threshold.Load(),
		Mem: MemSnapshot{
			SRAMReads:  a.sramReads.Load(),
			SRAMWrites: a.sramWrites.Load(),
			DRAMReads:  a.dramReads.Load(),
			DRAMWrites: a.dramWrites.Load(),
		},
	}
	a.mu.Lock()
	s.ThresholdTrajectory = append([]uint64(nil), a.trajectory...)
	a.mu.Unlock()
	return s
}

// MemSnapshot is the memory-reference portion of a snapshot, split by
// technology as in the paper's per-packet cost comparisons.
type MemSnapshot struct {
	SRAMReads  uint64 `json:"sram_reads"`
	SRAMWrites uint64 `json:"sram_writes"`
	DRAMReads  uint64 `json:"dram_reads"`
	DRAMWrites uint64 `json:"dram_writes"`
}

// Accesses returns the total number of memory references.
func (m MemSnapshot) Accesses() uint64 {
	return m.SRAMReads + m.SRAMWrites + m.DRAMReads + m.DRAMWrites
}

// AlgorithmSnapshot is a point-in-time copy of one algorithm's counters.
type AlgorithmSnapshot struct {
	// Name is the algorithm name ("multistage-filter", ...).
	Name string `json:"name"`
	// Packets and Bytes are the totals processed since creation.
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	// EntriesUsed / Capacity is the flow memory occupancy.
	EntriesUsed int `json:"entries_used"`
	Capacity    int `json:"capacity"`
	// Threshold is the current large-flow threshold in bytes.
	Threshold uint64 `json:"threshold"`
	// FilterPasses counts flows admitted to flow memory; its excess over
	// the true large-flow count is the false positive load (Section 4.2).
	FilterPasses uint64 `json:"filter_passes"`
	// Drops counts flows that qualified but found flow memory full.
	Drops uint64 `json:"drops"`
	// Preserved and Evictions count entry fates at interval transitions
	// (Section 3.3.1's preservation policy).
	Preserved uint64 `json:"preserved"`
	Evictions uint64 `json:"evictions"`
	// Intervals is the number of closed measurement intervals.
	Intervals uint64 `json:"intervals"`
	// ThresholdTrajectory is the threshold in effect during each closed
	// interval — the visible output of the ADAPTTHRESHOLD loop.
	ThresholdTrajectory []uint64 `json:"threshold_trajectory"`
	// Mem is the memory-reference accounting of Section 5.
	Mem MemSnapshot `json:"mem"`
	// Stale marks snapshots synthesized from an uninstrumented algorithm's
	// interface methods rather than live atomic counters; such values must
	// not be read concurrently with packet processing.
	Stale bool `json:"stale,omitempty"`
}

// MemRefsPerPacket returns the average memory references per packet.
func (s AlgorithmSnapshot) MemRefsPerPacket() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.Mem.Accesses()) / float64(s.Packets)
}

// EntriesRejected returns the number of flows that qualified for a flow
// memory entry but were refused because the memory was at its hard cap —
// the Drops counter under the name the overload documentation uses.
func (s AlgorithmSnapshot) EntriesRejected() uint64 { return s.Drops }

// Occupancy returns EntriesUsed/Capacity in [0, 1].
func (s AlgorithmSnapshot) Occupancy() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.EntriesUsed) / float64(s.Capacity)
}

// LaneHealth is the supervision state of one pipeline lane worker.
type LaneHealth int32

const (
	// LaneHealthy is a lane running its original algorithm instance.
	LaneHealthy LaneHealth = iota
	// LaneRestarted is a lane that panicked at least once and was restarted
	// with a fresh algorithm instance; it is processing traffic again.
	LaneRestarted
	// LaneQuarantined is a lane whose algorithm panicked and was not (or
	// could not be) restarted: the worker stays alive but sheds every batch
	// and answers interval flushes with an empty report, so the pipeline
	// never deadlocks on a dead lane.
	LaneQuarantined
)

// String renders the health state.
func (h LaneHealth) String() string {
	switch h {
	case LaneHealthy:
		return "healthy"
	case LaneRestarted:
		return "restarted"
	case LaneQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the health state as its string form, so /debug/vars
// and /healthz read naturally.
func (h LaneHealth) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// Lane holds the counters of one pipeline lane. The hand-off counters are
// written by the single producer goroutine; the panic/restart/health and
// worker-side shed counters are written by the lane worker. All fields are
// atomics, so either side may write its own counters and any goroutine may
// Snapshot.
type Lane struct {
	batches   atomic.Uint64
	packets   atomic.Uint64
	queueHWM  atomic.Uint64
	stalls    atomic.Uint64
	intervals atomic.Uint64

	shedBatches atomic.Uint64
	shedPackets atomic.Uint64
	shedBytes   atomic.Uint64

	degradedBatches atomic.Uint64
	degradedPackets atomic.Uint64
	degradedBytes   atomic.Uint64

	panics   atomic.Uint64
	restarts atomic.Uint64
	health   atomic.Int32
}

// ObserveBatch records one batch of n packets handed to the lane with the
// observed queue depth (in batches) just after the hand-off, and whether
// the producer found the buffer free list empty (a flush stall: the lane
// could not keep up and the producer had to wait for a buffer).
func (l *Lane) ObserveBatch(n int, queueDepth int, stalled bool) {
	l.batches.Add(1)
	l.packets.Add(uint64(n))
	if d := uint64(queueDepth); d > l.queueHWM.Load() {
		l.queueHWM.Store(d)
	}
	if stalled {
		l.stalls.Add(1)
	}
}

// ObserveFlush records an interval flush handed to the lane.
func (l *Lane) ObserveFlush() { l.intervals.Add(1) }

// ObserveShed records batches packets of bytes total size dropped without
// being processed — by an overload policy on the producer side, or by a
// quarantined (or panicking) lane worker.
func (l *Lane) ObserveShed(batches, packets int, bytes uint64) {
	l.shedBatches.Add(uint64(batches))
	l.shedPackets.Add(uint64(packets))
	l.shedBytes.Add(bytes)
}

// ObserveDegraded records one batch subsampled by the Degrade overload
// policy: dropped packets of droppedBytes were discarded, the rest of the
// batch was still delivered.
func (l *Lane) ObserveDegraded(dropped int, droppedBytes uint64) {
	l.degradedBatches.Add(1)
	l.degradedPackets.Add(uint64(dropped))
	l.degradedBytes.Add(droppedBytes)
}

// ObservePanic records a recovered panic in the lane worker.
func (l *Lane) ObservePanic() { l.panics.Add(1) }

// ObserveRestart records the lane being restarted with a fresh algorithm.
func (l *Lane) ObserveRestart() { l.restarts.Add(1) }

// SetHealth records the lane's supervision state.
func (l *Lane) SetHealth(h LaneHealth) { l.health.Store(int32(h)) }

// Health returns the lane's supervision state.
func (l *Lane) Health() LaneHealth { return LaneHealth(l.health.Load()) }

// Snapshot copies the lane counters.
func (l *Lane) Snapshot() LaneSnapshot {
	return LaneSnapshot{
		Batches:         l.batches.Load(),
		Packets:         l.packets.Load(),
		QueueHighWater:  l.queueHWM.Load(),
		FlushStalls:     l.stalls.Load(),
		Intervals:       l.intervals.Load(),
		ShedBatches:     l.shedBatches.Load(),
		ShedPackets:     l.shedPackets.Load(),
		ShedBytes:       l.shedBytes.Load(),
		DegradedBatches: l.degradedBatches.Load(),
		DegradedPackets: l.degradedPackets.Load(),
		DegradedBytes:   l.degradedBytes.Load(),
		Panics:          l.panics.Load(),
		Restarts:        l.restarts.Load(),
		Health:          LaneHealth(l.health.Load()),
	}
}

// LaneSnapshot is a point-in-time copy of one lane's counters.
type LaneSnapshot struct {
	// Batches and Packets count hand-offs to the lane worker.
	Batches uint64 `json:"batches"`
	Packets uint64 `json:"packets"`
	// QueueHighWater is the deepest the lane's queue has been, in batches.
	QueueHighWater uint64 `json:"queue_high_water"`
	// FlushStalls counts hand-offs where the producer found the lane
	// saturated — the queue full at hand-off, or the buffer free list empty
	// afterwards — and had to block. Only the Block and Degrade overload
	// policies stall; the dropping policies shed instead.
	FlushStalls uint64 `json:"flush_stalls"`
	// Intervals counts interval flushes sent to the lane.
	Intervals uint64 `json:"intervals"`
	// ShedBatches/ShedPackets/ShedBytes count traffic dropped without being
	// processed: by DropNewest/DropOldest on a full queue, or by a
	// quarantined or panicking lane worker. A batch both handed over and
	// later shed by the worker appears in Packets and ShedPackets.
	ShedBatches uint64 `json:"shed_batches"`
	ShedPackets uint64 `json:"shed_packets"`
	ShedBytes   uint64 `json:"shed_bytes"`
	// DegradedBatches counts batches thinned by the Degrade policy;
	// DegradedPackets/DegradedBytes count what the thinning discarded.
	DegradedBatches uint64 `json:"degraded_batches"`
	DegradedPackets uint64 `json:"degraded_packets"`
	DegradedBytes   uint64 `json:"degraded_bytes"`
	// Panics counts recovered lane-worker panics; Restarts counts fresh
	// algorithm instances installed after a panic.
	Panics   uint64 `json:"panics"`
	Restarts uint64 `json:"restarts"`
	// Health is the lane's supervision state.
	Health LaneHealth `json:"health"`
}

// PipelineSnapshot is a point-in-time copy of a sharded pipeline's state:
// the producer-side lane counters plus each lane algorithm's own counters.
type PipelineSnapshot struct {
	Shards     int                 `json:"shards"`
	Lanes      []LaneSnapshot      `json:"lanes"`
	Algorithms []AlgorithmSnapshot `json:"algorithms"`
	// Reports is the number of merged interval reports produced.
	Reports int `json:"reports"`
	// Export, when the pipeline's reports feed an exporter, is that export
	// path's counters.
	Export *ExportSnapshot `json:"export,omitempty"`
}

// Packets sums packets handed to all lanes.
func (s PipelineSnapshot) Packets() uint64 {
	var total uint64
	for _, l := range s.Lanes {
		total += l.Packets
	}
	return total
}

// ShedPackets sums packets shed across all lanes.
func (s PipelineSnapshot) ShedPackets() uint64 {
	var total uint64
	for _, l := range s.Lanes {
		total += l.ShedPackets + l.DegradedPackets
	}
	return total
}

// HealthStatus grades a component for the /healthz endpoint.
type HealthStatus int

const (
	// HealthOK: fully operational.
	HealthOK HealthStatus = iota
	// HealthDegraded: still serving, but shedding load, running with
	// quarantined lanes, or rejecting flow-memory entries.
	HealthDegraded
	// HealthUnhealthy: no longer producing useful measurements (e.g. every
	// lane quarantined).
	HealthUnhealthy
)

// String renders the status the way /healthz reports it.
func (h HealthStatus) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthUnhealthy:
		return "unhealthy"
	default:
		return "unknown"
	}
}

// Health grades the pipeline: unhealthy when every lane is quarantined,
// degraded when any lane is quarantined or has panicked, when any traffic
// has been shed or degraded by an overload policy, or when any lane's flow
// memory rejected entries. The reason names the first condition found.
func (s PipelineSnapshot) Health() (HealthStatus, string) {
	quarantined := 0
	for _, l := range s.Lanes {
		if l.Health == LaneQuarantined {
			quarantined++
		}
	}
	if len(s.Lanes) > 0 && quarantined == len(s.Lanes) {
		return HealthUnhealthy, "all lanes quarantined"
	}
	if quarantined > 0 {
		return HealthDegraded, fmt.Sprintf("%d/%d lanes quarantined", quarantined, len(s.Lanes))
	}
	for i, l := range s.Lanes {
		if l.Panics > 0 {
			return HealthDegraded, fmt.Sprintf("lane %d recovered %d panics", i, l.Panics)
		}
	}
	if shed := s.ShedPackets(); shed > 0 {
		return HealthDegraded, fmt.Sprintf("%d packets shed under overload", shed)
	}
	for i, a := range s.Algorithms {
		if a.Drops > 0 {
			return HealthDegraded, fmt.Sprintf("lane %d flow memory rejected %d entries", i, a.Drops)
		}
	}
	if s.Export != nil {
		if st, reason := s.Export.Health(); st > HealthOK {
			return st, reason
		}
	}
	return HealthOK, ""
}

// DeviceSnapshot is a point-in-time copy of a measurement device's state.
type DeviceSnapshot struct {
	Algorithm AlgorithmSnapshot `json:"algorithm"`
	// Definition is the flow definition name.
	Definition string `json:"definition"`
	// Reports is the number of interval reports produced so far.
	Reports int `json:"reports"`
	// Export, when the device's reports feed an exporter, is that export
	// path's counters.
	Export *ExportSnapshot `json:"export,omitempty"`
}

// Health grades a single device: degraded when its flow memory has rejected
// entries (the signal threshold adaptation exists to relieve) or when its
// export path is losing reports.
func (s DeviceSnapshot) Health() (HealthStatus, string) {
	if s.Algorithm.Drops > 0 {
		return HealthDegraded, fmt.Sprintf("flow memory rejected %d entries", s.Algorithm.Drops)
	}
	if s.Export != nil {
		if st, reason := s.Export.Health(); st > HealthOK {
			return st, reason
		}
	}
	return HealthOK, ""
}

// Export holds the live counters of a report export path — the link from
// the measurement device to the collection station whose overhead is the
// paper's point iv). Writers are the export path's goroutines (the report
// callback and, for the reliable transport, the sender); all fields are
// atomics, so any goroutine may Snapshot while reports are flowing.
type Export struct {
	reports        atomic.Uint64
	frames         atomic.Uint64
	bytes          atomic.Uint64
	sent           atomic.Uint64
	acked          atomic.Uint64
	redelivered    atomic.Uint64
	reconnects     atomic.Uint64
	errors         atomic.Uint64
	framesDropped  atomic.Uint64
	reportsDropped atomic.Uint64
	spoolDepth     atomic.Int64
	spoolHWM       atomic.Uint64
	heartbeats     atomic.Uint64
	pauses         atomic.Uint64
	resumes        atomic.Uint64
	paused         atomic.Bool
	pressureEvents atomic.Uint64
	pressure       atomic.Bool
}

// ObserveReport records one interval report handed to the export path as
// frames encoded packets of bytes total size.
func (e *Export) ObserveReport(frames int, bytes uint64) {
	e.reports.Add(1)
	e.frames.Add(uint64(frames))
	e.bytes.Add(bytes)
}

// ObserveSent records n frames written to the wire (redeliveries included).
func (e *Export) ObserveSent(n uint64) { e.sent.Add(n) }

// ObserveAcked records n frames acknowledged by the collector.
func (e *Export) ObserveAcked(n uint64) { e.acked.Add(n) }

// ObserveRedelivered records n frames re-sent after a reconnect.
func (e *Export) ObserveRedelivered(n uint64) { e.redelivered.Add(n) }

// ObserveReconnect records a successful re-dial after the first connection.
func (e *Export) ObserveReconnect() { e.reconnects.Add(1) }

// ObserveSendError records a failed dial or send.
func (e *Export) ObserveSendError() { e.errors.Add(1) }

// ObserveFramesDropped records n frames lost for good — a failed UDP send,
// a spool overflow, or frames still unacknowledged when the exporter shut
// down.
func (e *Export) ObserveFramesDropped(n uint64) { e.framesDropped.Add(n) }

// ObserveReportDropped records an interval report at least one of whose
// frames was lost for good.
func (e *Export) ObserveReportDropped() { e.reportsDropped.Add(1) }

// SetSpoolDepth records the spool occupancy (in frames) after a change.
func (e *Export) SetSpoolDepth(n int) {
	e.spoolDepth.Store(int64(n))
	if d := uint64(n); d > e.spoolHWM.Load() {
		e.spoolHWM.Store(d)
	}
}

// ObserveHeartbeat records one liveness frame sent to the collector.
func (e *Export) ObserveHeartbeat() { e.heartbeats.Add(1) }

// ObservePause records a pause frame from the collector and flips the
// paused gauge; ObserveResume records the matching resume.
func (e *Export) ObservePause() {
	e.pauses.Add(1)
	e.paused.Store(true)
}

// ObserveResume records a resume frame from the collector.
func (e *Export) ObserveResume() {
	e.resumes.Add(1)
	e.paused.Store(false)
}

// SetPaused overrides the paused gauge (connection teardown clears it
// without a resume frame).
func (e *Export) SetPaused(v bool) { e.paused.Store(v) }

// SetPressure records spool-occupancy pressure transitions: v true when
// occupancy crossed the high-water mark, false when it fell back below the
// low-water mark. Each onset counts as one pressure event.
func (e *Export) SetPressure(v bool) {
	if v && !e.pressure.Swap(true) {
		e.pressureEvents.Add(1)
	} else if !v {
		e.pressure.Store(false)
	}
}

// Pressure reports whether the spool is above its high-water mark.
func (e *Export) Pressure() bool { return e.pressure.Load() }

// Snapshot copies the export counters.
func (e *Export) Snapshot() ExportSnapshot {
	return ExportSnapshot{
		Reports:        e.reports.Load(),
		Frames:         e.frames.Load(),
		Bytes:          e.bytes.Load(),
		Sent:           e.sent.Load(),
		Acked:          e.acked.Load(),
		Redelivered:    e.redelivered.Load(),
		Reconnects:     e.reconnects.Load(),
		ExportErrors:   e.errors.Load(),
		FramesDropped:  e.framesDropped.Load(),
		ReportsDropped: e.reportsDropped.Load(),
		SpoolDepth:     int(e.spoolDepth.Load()),
		SpoolHighWater: e.spoolHWM.Load(),
		Heartbeats:     e.heartbeats.Load(),
		Pauses:         e.pauses.Load(),
		Resumes:        e.resumes.Load(),
		Paused:         e.paused.Load(),
		PressureEvents: e.pressureEvents.Load(),
		Pressure:       e.pressure.Load(),
	}
}

// ExportSnapshot is a point-in-time copy of an export path's counters.
type ExportSnapshot struct {
	// Reports counts interval reports handed to the export path; Frames and
	// Bytes count the encoded export packets they became.
	Reports uint64 `json:"reports"`
	Frames  uint64 `json:"frames"`
	Bytes   uint64 `json:"bytes"`
	// Sent counts frames written to the wire, redeliveries included; Acked
	// counts frames the collector acknowledged (reliable transport only —
	// UDP has no acks, so Sent is the best it knows).
	Sent  uint64 `json:"sent"`
	Acked uint64 `json:"acked"`
	// Redelivered counts frames re-sent after a reconnect (at-least-once:
	// these may be duplicates the collector dedups by sequence).
	Redelivered uint64 `json:"redelivered"`
	// Reconnects counts successful re-dials after the first connection.
	Reconnects uint64 `json:"reconnects"`
	// ExportErrors counts failed dials and sends.
	ExportErrors uint64 `json:"export_errors"`
	// FramesDropped counts frames lost for good (failed UDP sends, spool
	// overflow, frames unacknowledged at shutdown); ReportsDropped counts
	// interval reports with at least one such frame.
	FramesDropped  uint64 `json:"frames_dropped"`
	ReportsDropped uint64 `json:"reports_dropped"`
	// SpoolDepth is the current spool backlog in frames; SpoolHighWater the
	// deepest it has been.
	SpoolDepth     int    `json:"spool_depth"`
	SpoolHighWater uint64 `json:"spool_high_water"`
	// Heartbeats counts liveness frames sent to the collector.
	Heartbeats uint64 `json:"heartbeats"`
	// Pauses and Resumes count backpressure frames received from the
	// collector; Paused is true while a pause is in effect.
	Pauses  uint64 `json:"pauses"`
	Resumes uint64 `json:"resumes"`
	Paused  bool   `json:"paused"`
	// PressureEvents counts spool occupancy crossings of the high-water
	// mark; Pressure is true while occupancy is above it (it clears at the
	// low-water mark — hysteresis, so the gauge does not flap).
	PressureEvents uint64 `json:"pressure_events"`
	Pressure       bool   `json:"pressure"`
}

// Backlog returns the number of frames accepted but not yet confirmed
// delivered (sent for UDP, acked for the reliable transport).
func (s ExportSnapshot) Backlog() uint64 {
	confirmed := s.Acked
	if confirmed == 0 && s.Reconnects == 0 && s.Redelivered == 0 {
		// Pure UDP path: nothing acks, sends are final.
		confirmed = s.Sent
	}
	if confirmed+s.FramesDropped >= s.Frames {
		return 0
	}
	return s.Frames - confirmed - s.FramesDropped
}

// Health grades the export path: degraded when reports have been lost for
// good or sends are erroring (the device still measures; its reports are
// just not all reaching the collection station).
func (s ExportSnapshot) Health() (HealthStatus, string) {
	if s.FramesDropped > 0 || s.ReportsDropped > 0 {
		return HealthDegraded, fmt.Sprintf("%d export frames (%d reports) dropped", s.FramesDropped, s.ReportsDropped)
	}
	if s.ExportErrors > 0 {
		return HealthDegraded, fmt.Sprintf("%d export errors", s.ExportErrors)
	}
	if s.Pressure {
		return HealthDegraded, fmt.Sprintf("spool above high-water mark (depth %d)", s.SpoolDepth)
	}
	return HealthOK, ""
}

// BusSnapshot is a point-in-time copy of an event bus's counters.
type BusSnapshot struct {
	// Subscribers is the number of live subscriptions.
	Subscribers int `json:"subscribers"`
	// Published counts events offered to the bus; Delivered counts
	// per-subscription deliveries; Dropped counts events slow subscribers
	// lost to queue overflow.
	Published uint64 `json:"published"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}
