// Package device assembles a complete traffic measurement device as
// evaluated in Section 7.2 of the paper: a measurement algorithm (sample
// and hold, a multistage filter, or a baseline), a flow definition that
// extracts keys from packets, and the dynamic threshold adaptation of
// Figure 5 that keeps the flow memory near its target usage.
//
// A Device implements trace.Consumer, so it plugs directly into
// trace.Replay.
package device

import (
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/telemetry"
)

// IntervalReport is the device's output for one measurement interval. It is
// the shared core.IntervalReport: pipelines report the same type with the
// same ordering guarantees.
type IntervalReport = core.IntervalReport

// Device drives an algorithm over a packet stream.
type Device struct {
	alg     core.Algorithm
	def     flow.Definition
	adaptor *adapt.Adaptor

	// keys and sizes are PacketBatch's reusable key-extraction scratch.
	keys  []flow.Key
	sizes []uint32

	reports []IntervalReport
	// reportCount mirrors len(reports) plus reports dropped by
	// KeepReports=false, so Stats can be read while packets flow.
	reportCount atomic.Int64
	// lastRejected is the algorithm's cumulative flow-memory rejection count
	// at the previous interval boundary, so adaptation sees per-interval
	// deltas.
	lastRejected uint64
	// OnReport, when set, receives each interval report as it is produced;
	// set KeepReports to false for long runs to avoid accumulation.
	OnReport func(r IntervalReport)
	// KeepReports controls whether reports accumulate in the device
	// (default true).
	KeepReports bool
	// exportTel, when set, is the export path's counters, included in Stats
	// so /debug/vars and /healthz see spool depth, retries and drops next
	// to the measurement counters.
	exportTel *telemetry.Export
}

// New creates a device. adaptor may be nil for a fixed threshold.
func New(alg core.Algorithm, def flow.Definition, adaptor *adapt.Adaptor) *Device {
	return &Device{alg: alg, def: def, adaptor: adaptor, KeepReports: true}
}

// Algorithm returns the wrapped algorithm.
func (d *Device) Algorithm() core.Algorithm { return d.alg }

// Definition returns the flow definition in use.
func (d *Device) Definition() flow.Definition { return d.def }

// Packet implements trace.Consumer.
func (d *Device) Packet(p *flow.Packet) {
	d.alg.Process(d.def.Key(p), p.Size)
}

// PacketBatch implements trace.BatchConsumer: it extracts the batch's flow
// keys in bulk into reusable scratch and hands them to core.ProcessBatch.
func (d *Device) PacketBatch(pkts []flow.Packet) {
	n := len(pkts)
	if cap(d.keys) < n {
		d.keys = make([]flow.Key, n)
		d.sizes = make([]uint32, n)
	}
	keys, sizes := d.keys[:n], d.sizes[:n]
	for i := range pkts {
		keys[i] = d.def.Key(&pkts[i])
		sizes[i] = pkts[i].Size
	}
	core.ProcessBatch(d.alg, nil, keys, sizes)
}

// EndInterval implements trace.Consumer: it snapshots the report, applies
// the interval transition, and runs threshold adaptation for the next
// interval. Algorithms that report memory pressure (core.MemoryPressure)
// feed their per-interval rejection count into the adaptation, so a flow
// memory that filled and refused entries mid-interval raises the threshold
// even if evictions emptied it again by the boundary.
func (d *Device) EndInterval(interval int) {
	r := IntervalReport{
		Interval:    interval,
		Threshold:   d.alg.Threshold(),
		EntriesUsed: d.alg.EntriesUsed(),
		Estimates:   d.alg.EndInterval(),
	}
	if d.adaptor != nil {
		var rejected uint64
		if mp, ok := d.alg.(core.MemoryPressure); ok {
			total := mp.EntriesRejected()
			rejected = total - d.lastRejected
			d.lastRejected = total
		}
		d.alg.SetThreshold(d.adaptor.AdaptPressure(r.EntriesUsed, d.alg.Capacity(), rejected, r.Threshold))
	}
	if d.OnReport != nil {
		d.OnReport(r)
	}
	if d.KeepReports {
		d.reports = append(d.reports, r)
	}
	d.reportCount.Add(1)
}

// Reports returns the accumulated interval reports.
func (d *Device) Reports() []IntervalReport { return d.reports }

// Stats returns the device's live telemetry. For the paper's algorithms
// (and the NetFlow/sampling baselines) the counters are atomics and Stats
// is safe to call from any goroutine while packets are being processed;
// for uninstrumented algorithms the snapshot is marked Stale and must only
// be taken while the device is quiescent.
func (d *Device) Stats() telemetry.DeviceSnapshot {
	s := telemetry.DeviceSnapshot{
		Algorithm:  core.Snapshot(d.alg),
		Definition: d.def.Name(),
		Reports:    int(d.reportCount.Load()),
	}
	if d.exportTel != nil {
		es := d.exportTel.Snapshot()
		s.Export = &es
	}
	return s
}

// SetExportTelemetry attaches an export path's counters to the device's
// snapshots (and thereby its Health). Call before traffic flows.
func (d *Device) SetExportTelemetry(t *telemetry.Export) { d.exportTel = t }
