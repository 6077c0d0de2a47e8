package main

import (
	"fmt"
	"io"
	"time"

	traffic "repro"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json; main_test.go holds the two in step.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the device→collector path sees. Every
// workload reports every one of them, and none of them can read 0.
var e2eMetrics = []metricDef{
	{"pkts_per_s", "pkts/s"},
	{"cpu_ns_per_pkt", "ns"},
	{"allocs_per_kpkt", "allocs"},
	{"state_mb", "MiB"},
	{"setup_s", "s"},
	{"report_lag_p50_ms", "ms"},
	{"report_lag_tail_ms", "ms"},
	{"large_err_pct", "%"},
}

// layerMetrics come from the traced run (-trace 1). "kernel" is the
// workload's packet kernel (multistage or sampleandhold) and "consumer" the
// module the replay feeds (device, or stagegraph reached through pipeline).
var layerMetrics = []metricDef{
	{"trace.replay_ns_per_pkt", "ns"},
	{"flow.key_ns_per_pkt", "ns"},
	{"kernel.process_ns_per_pkt", "ns"},
	{"kernel.end_interval_us", "us"},
	{"kernel.busy_pct", "%"},
	{"kernel.sram_refs_per_pkt", "count"},
	{"kernel.dram_refs_per_pkt", "count"},
	{"kernel.passes_per_kpkt", "count"},
	{"kernel.large_fn_pct", "%"},
	{"consumer.batch_ns_per_pkt", "ns"},
	{"consumer.self_ns_per_pkt", "ns"},
	{"consumer.end_interval_us", "us"},
	{"consumer.allocs_per_interval", "count"},
	{"stagegraph.flush_stalls_per_kpkt", "count"},
	{"stagegraph.queue_high_water", "count"},
	{"stagegraph.lane_skew", "ratio"},
	{"netflow.encode_us_per_report", "us"},
	{"netflow.frames_per_report", "count"},
	{"netflow.bytes_per_report", "bytes"},
	{"netflow.decode_us_per_frame", "us"},
	{"collector.apply_us_per_frame", "us"},
	{"reliable.enqueue_us_per_report", "us"},
	{"reliable.spool_fsyncs_per_report", "count"},
	{"reliable.spool_high_water", "count"},
	{"reliable.redelivered", "count"},
	{"reliable.transport_ms_p50", "ms"},
	{"reliable.frame_service_us_p50", "us"},
	{"reliable.wal_fsyncs_per_frame", "count"},
	{"reliable.wal_deliver_us_per_frame", "us"},
	{"reliable.snapshot_ms", "ms"},
	{"reliable.recover_ms", "ms"},
	{"reliable.duplicates", "count"},
	{"reliable.pauses", "count"},
	{"unattributed_ns_per_pkt", "ns"},
	{"trace_overhead_pct", "%"},
	{"cpu_steal_pct", "%"},
}

// workload is one input set the benchmark runs. A multistage workload
// (buckets > 0) drives a single-lane Device; a lanes > 0 workload drives a
// sharded sample-and-hold Pipeline; export adds the reliable export path.
type workload struct {
	name, why        string
	buckets, entries int
	lanes            int
	export           bool
}

// workloads are the four the benchmark defines. The multistage split is the
// Section 7.2 5-tuple device of internal/experiments/devices.go.
var workloads = []workload{
	{
		name:    "msf-sram",
		why:     "Section 7.2 5-tuple multistage device (4x3114 counters, 2539 entries): ~100 KiB of state stays in cache, so hashing and the filter update dominate",
		buckets: 3114, entries: 2539,
	},
	{
		name:    "msf-dram",
		why:     "the same device with 4x2^20 counters and 65536 entries: 32 MiB of state misses cache on every packet and reports are ~8x larger",
		buckets: 1 << 20, entries: 65536,
	},
	{
		name:  "sh-2lane",
		why:   "2-lane sample-and-hold pipeline: the cheapest kernel, so key/partition work, the SPSC handoff and the interval merge carry the cost",
		lanes: 2,
	},
	{
		name:    "export-paced",
		why:     "msf-sram device paced at one interval per 100 ms through v5 encode, spooled TCP export and the collector WAL: the only run of the export path",
		buckets: 3114, entries: 2539, export: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Fixed sizing of the sample-and-hold lanes and of the threshold.
const (
	shEntries      = 2048
	shOversampling = 4
	thresholdShare = 0.001 // initial (and, for sample and hold, fixed) T as a share of capacity
	batchSize      = 256
)

// newAlgorithm builds lane's algorithm instance for the workload.
func (w *workload) newAlgorithm(meta traffic.TraceMeta, lane int) (traffic.Algorithm, error) {
	t := uint64(thresholdShare * meta.Capacity())
	if w.lanes > 0 {
		return traffic.NewSampleAndHold(traffic.SampleAndHoldConfig{
			Entries: shEntries, Threshold: t, Oversampling: shOversampling, Seed: int64(lane) + 3,
		})
	}
	return traffic.NewMultistageFilter(traffic.MultistageConfig{
		Stages: 4, Buckets: w.buckets, Entries: w.entries, Threshold: t,
		Conservative: true, Shield: true, Preserve: true, Seed: 5,
	})
}

// kernelModule names the package that implements the workload's kernel.
func (w *workload) kernelModule() string {
	if w.lanes > 0 {
		return "sampleandhold"
	}
	return "multistage"
}

// consumerModule names the package the replay feeds.
func (w *workload) consumerModule() string {
	if w.lanes > 0 {
		return "stagegraph"
	}
	return "device"
}

// system is the program under test: a Device or a Pipeline.
type system struct {
	dev  *traffic.Device
	pipe *traffic.Pipeline
}

// newSystem builds the workload's consumer; keep selects whether it
// retains its reports (the verification pass needs them, the long timed
// runs must not grow).
func (w *workload) newSystem(meta traffic.TraceMeta, keep bool) (*system, error) {
	if w.lanes > 0 {
		p, err := traffic.NewPipeline(traffic.PipelineConfig{
			Shards: w.lanes, BatchSize: batchSize, QueueDepth: 256, Overload: traffic.OverloadBlock,
			Definition: traffic.FiveTuple, DiscardReports: !keep,
			NewAlgorithm: func(lane int) (traffic.Algorithm, error) { return w.newAlgorithm(meta, lane) },
		})
		if err != nil {
			return nil, err
		}
		return &system{pipe: p}, nil
	}
	alg, err := w.newAlgorithm(meta, 0)
	if err != nil {
		return nil, err
	}
	dev := traffic.NewDevice(alg, traffic.FiveTuple, traffic.NewAdaptor(traffic.MultistageAdaptation()))
	dev.KeepReports = keep
	return &system{dev: dev}, nil
}

// capacity is the flow-memory capacity summed over lanes.
func (w *workload) capacity() int {
	if w.lanes > 0 {
		return w.lanes * shEntries
	}
	return w.entries
}

func (s *system) consumer() traffic.BatchConsumer {
	if s.pipe != nil {
		return s.pipe
	}
	return s.dev
}

func (s *system) close() {
	if s.pipe != nil {
		s.pipe.Close()
	}
}

func (s *system) reports() []traffic.IntervalReport {
	if s.pipe != nil {
		return s.pipe.Reports()
	}
	return s.dev.Reports()
}

// algorithms returns every lane algorithm's telemetry.
func (s *system) algorithms() []traffic.AlgorithmStats {
	if s.pipe != nil {
		return s.pipe.Stats().Algorithms
	}
	return []traffic.AlgorithmStats{s.dev.Stats().Algorithm}
}

// counted returns the packets the algorithms' telemetry counted and the
// packets the pipeline shed or degraded (always 0 for a Device).
func (s *system) counted() (packets, lost uint64) {
	for _, a := range s.algorithms() {
		packets += a.Packets
	}
	if s.pipe != nil {
		lost = s.pipe.Stats().ShedPackets()
	}
	return packets, lost
}

// input is one generated trace, held in memory and replayed many times.
type input struct {
	meta traffic.TraceMeta
	pkts []traffic.Packet
	// bounds[i] is the index of interval i's first packet; bounds[n] = len(pkts).
	bounds []int
	// truth[i] counts interval i exactly (filled by computeTruth).
	truth []*traffic.ExactCounter
}

// generate builds the MAG trace at the given scale and length from seed.
func generate(scale float64, intervals int, seed int64) (*input, error) {
	cfg, err := traffic.Preset("MAG")
	if err != nil {
		return nil, err
	}
	cfg = cfg.Scaled(scale).WithIntervals(intervals)
	cfg.Seed = seed
	src, err := traffic.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	var pkts []traffic.Packet
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
	// An exact-size copy, so the live heap holds the input once and state_mb
	// does not depend on how append grew the slice.
	in := &input{meta: src.Meta(), pkts: append([]traffic.Packet(nil), pkts...)}
	in.bounds = make([]int, 0, intervals+1)
	for i, p := range in.pkts {
		for iv := min(int(p.Time/in.meta.Interval), intervals-1); len(in.bounds) <= iv; {
			in.bounds = append(in.bounds, i)
		}
	}
	for len(in.bounds) <= intervals {
		in.bounds = append(in.bounds, len(in.pkts))
	}
	return in, nil
}

func (in *input) intervals() int { return in.meta.Intervals }

// computeTruth counts every interval exactly with the library's oracle.
func (in *input) computeTruth() {
	in.truth = make([]*traffic.ExactCounter, in.intervals())
	for i := range in.truth {
		c := traffic.NewExactCounter(traffic.FiveTuple)
		for j := in.bounds[i]; j < in.bounds[i+1]; j++ {
			c.Packet(&in.pkts[j])
		}
		in.truth[i] = c
	}
}

// driver replays the in-memory trace into one long-lived consumer, pass
// after pass, numbering intervals after those already closed so the
// consumer sees one ever-growing trace. It records how long each interval
// close took and, when tr is set, a span per batch and per close.
type driver struct {
	in   *input
	src  traffic.Source
	c    traffic.BatchConsumer
	base int
	// lags collects the duration of every EndInterval call.
	lags []time.Duration
	// beforeEnd, when set, runs before each EndInterval is forwarded (the
	// open-loop workload waits there for the interval's due time).
	beforeEnd func(interval int)
	tr        *tracer
	pass      int32 // current pass span id (traced passes)
	// countAllocs makes each EndInterval collect its heap allocations into
	// endAllocs. Reading the count stops the world, so it stays off the
	// passes whose speed is compared.
	countAllocs bool
	endAllocs   []float64
}

func newDriver(in *input, c traffic.BatchConsumer) *driver {
	return &driver{
		in:   in,
		src:  traffic.NewSliceSource(in.meta, in.pkts),
		c:    c,
		lags: make([]time.Duration, 0, 1<<16),
	}
}

// replay runs one pass over the first n intervals of the trace and returns
// the number of packets delivered.
func (d *driver) replay(n int) (int, error) {
	src := d.src
	if n == d.in.intervals() {
		src.(interface{ Reset() }).Reset()
	} else {
		meta := d.in.meta
		meta.Intervals = n
		src = traffic.NewSliceSource(meta, d.in.pkts[:d.in.bounds[n]])
	}
	var start time.Time
	if d.tr != nil {
		start = time.Now()
		d.pass = d.tr.newID()
	}
	pkts, err := traffic.Replay(src, d, traffic.WithBatchSize(batchSize))
	if d.tr != nil {
		d.tr.record(spanPass, d.pass, 0, start, time.Now(), pkts)
	}
	d.base += n
	return pkts, err
}

// Packet implements traffic.Consumer (Replay uses PacketBatch).
func (d *driver) Packet(p *traffic.Packet) { d.c.Packet(p) }

// PacketBatch implements traffic.BatchConsumer.
func (d *driver) PacketBatch(pkts []traffic.Packet) {
	if d.tr == nil {
		d.c.PacketBatch(pkts)
		return
	}
	t0 := time.Now()
	d.c.PacketBatch(pkts)
	d.tr.record(spanBatch, d.tr.newID(), d.pass, t0, time.Now(), len(pkts))
}

// EndInterval implements traffic.Consumer.
func (d *driver) EndInterval(i int) {
	if d.beforeEnd != nil {
		d.beforeEnd(d.base + i)
	}
	var m0 uint64
	if d.countAllocs {
		m0 = mallocs()
	}
	t0 := time.Now()
	d.c.EndInterval(d.base + i)
	t1 := time.Now()
	d.lags = append(d.lags, t1.Sub(t0))
	if d.countAllocs {
		d.endAllocs = append(d.endAllocs, float64(mallocs()-m0))
	}
	if d.tr != nil {
		d.tr.record(spanInterval, d.tr.newID(), d.pass, t0, t1, 0)
	}
}
