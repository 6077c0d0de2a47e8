package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	traffic "repro"
	"repro/internal/netflow"
)

// params are one run's settings.
type params struct {
	seed    int64
	seconds float64
	traced  bool
	// short shrinks the trace (MAG x0.01, 4 intervals) and the paced period
	// (20 ms) so the whole benchmark runs in seconds, for tests.
	short  bool
	outDir string
}

func (p params) scale() float64 {
	if p.short {
		return 0.01
	}
	return 0.1
}

func (p params) intervals() int {
	if p.short {
		return 4
	}
	return 18
}

// period is the open-loop workload's wall-clock time per interval.
func (p params) period() time.Duration {
	if p.short {
		return 20 * time.Millisecond * raceSlowdown
	}
	return 100 * time.Millisecond
}

// minPasses is the fewest timed passes a closed-loop run makes.
func (p params) minPasses() int {
	if p.short {
		return 1
	}
	return 3
}

// setups is how many times set-up is repeated for setup_s.
func (p params) setups() int {
	if p.short {
		return 2
	}
	return 16
}

// snapshotEvery is the collector snapshot cadence, in reports.
const snapshotEvery = 50

// probeReports is how many reports a closed-loop traced run pushes through
// the export path to measure its layers on the workload's own reports.
const probeReports = 3

// checker counts correctness checks and keeps the failures.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// accuracy accumulates the paper's Tables 4-7 metrics over reports.
type accuracy struct {
	large, missed, reported int
	errShareT               float64 // sum over reported large flows of |truth-estimate|/T
}

// run is one workload run in this process.
type run struct {
	w   *workload
	p   params
	in  *input
	v   map[string]float64
	ck  checker
	acc accuracy
	out io.Writer
}

// runWorkload generates the input, runs the workload, and returns its
// result with the metric set -trace selects.
func runWorkload(w *workload, p params, out io.Writer) (result, error) {
	st0 := readCPUStat()
	in, err := generate(p.scale(), p.intervals(), p.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s: seed %d, %s, %d packets in %d intervals, %.0f flows/interval\n",
		w.name, p.seed, in.meta.Name, len(in.pkts), in.intervals(), flowsPerInterval(in))
	r := &run{w: w, p: p, in: in, v: make(map[string]float64), out: out}
	if w.export {
		err = r.exportPaced()
	} else {
		err = r.closedLoop()
	}
	if err != nil {
		return result{}, err
	}
	steal := stealPct(st0, readCPUStat())
	r.v["cpu_steal_pct"] = steal
	if steal > 5 {
		fmt.Fprintf(out, "NOISY: %.1f%% of machine CPU time was stolen during this run\n", steal)
	}
	defs := e2eMetrics
	if p.traced {
		defs = layerMetrics
	}
	res := result{
		Correct:   r.ck.failed == 0,
		Attempted: r.ck.attempted,
		Failed:    r.ck.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.v[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range r.ck.failures {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(out, "checks: %d of %d passed\n", r.ck.attempted-r.ck.failed, r.ck.attempted)
	return res, nil
}

func flowsPerInterval(in *input) float64 {
	flows := make(map[traffic.FlowKey]struct{})
	for _, p := range in.pkts[in.bounds[0]:in.bounds[1]] {
		flows[traffic.FiveTuple.Key(&p)] = struct{}{}
	}
	return float64(len(flows))
}

// setupQuiet builds the system n times, keeps the last one, and returns
// the median build time of the quietest builds, in seconds. Each build
// starts after a collection, so every one reuses the same freed memory.
func setupQuiet[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var kept T
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		d := time.Since(t0)
		if err != nil {
			if i > 0 {
				discard(kept)
			}
			return kept, 0, err
		}
		ds = append(ds, d.Seconds())
		if i > 0 {
			discard(kept)
		}
		kept = s
	}
	return kept, median(pick(ds, quietest(ds))), nil
}

// closedLoop runs a closed-loop workload: one long-lived consumer, an
// untimed warm-up pass, then passes over the trace until the run's seconds
// are spent (alternating traced and plain passes under -trace 1), a final
// checked pass, and a verification pass on a fresh consumer.
func (r *run) closedLoop() error {
	in, w := r.in, r.w
	heap0 := liveHeapMiB()
	sys, setup, err := setupQuiet(r.p.setups(),
		func() (*system, error) { return w.newSystem(in.meta, false) },
		func(s *system) { s.close() })
	if err != nil {
		return err
	}
	defer sys.close()
	r.v["setup_s"] = setup
	d := newDriver(in, sys.consumer())
	offered, err := d.replay(in.intervals())
	if err != nil {
		return err
	}
	r.v["state_mb"] = liveHeapMiB() - heap0

	var n int
	if r.p.traced {
		n, err = r.closedTraced(sys, d)
	} else {
		n, err = r.closedTimed(d)
	}
	if err != nil {
		return err
	}
	offered += n

	in.computeTruth()
	if sys.dev != nil {
		// The long-lived device's estimates must still be lower bounds
		// after every pass; a pipeline discards its reports, so only the
		// fresh verification pipeline below is checked that way.
		sys.dev.OnReport = func(rep traffic.IntervalReport) {
			r.checkReport(rep.Interval, rep.Threshold, rep.Estimates, nil)
		}
		if n, err = d.replay(in.intervals()); err != nil {
			return err
		}
		offered += n
	}
	counted, lost := sys.counted()
	r.ck.check(counted == uint64(offered) && lost == 0,
		"packet loss: %d packets offered, %d counted, %d shed or degraded", offered, counted, lost)

	reports, err := r.verify()
	if err != nil {
		return err
	}
	if r.p.traced {
		return r.exportProbe(reports)
	}
	return nil
}

// closedTimed runs the untraced timed passes and records the end-to-end
// metrics from the quietest of them; it returns the packets delivered.
func (r *run) closedTimed(d *driver) (int, error) {
	wall := make([]float64, 0, 4096) // ns per packet
	cpus := make([]float64, 0, 4096)
	lagFrom := make([]int, 0, 4097) // pass i closed intervals d.lags[lagFrom[i]:lagFrom[i+1]]
	d.lags = d.lags[:0]
	pkts := 0
	m0 := mallocs()
	start := time.Now()
	for len(wall) < r.p.minPasses() || time.Since(start).Seconds() < r.p.seconds {
		lagFrom = append(lagFrom, len(d.lags))
		c0, t0 := cpuTime(), time.Now()
		n, err := d.replay(r.in.intervals())
		if err != nil {
			return pkts, err
		}
		el, c := time.Since(t0), cpuTime()-c0
		wall = append(wall, float64(el)/float64(n))
		cpus = append(cpus, float64(c)/float64(n))
		pkts += n
	}
	allocs := mallocs() - m0
	lagFrom = append(lagFrom, len(d.lags))
	quiet := quietest(wall)
	var lags []float64
	for _, i := range quiet {
		lags = append(lags, durationsMs(d.lags[lagFrom[i]:lagFrom[i+1]])...)
	}
	r.v["pkts_per_s"] = 1e9 / median(pick(wall, quiet))
	r.v["cpu_ns_per_pkt"] = median(pick(cpus, quiet))
	r.v["allocs_per_kpkt"] = float64(allocs) / (float64(pkts) / 1000)
	r.recordLags(lags)
	fmt.Fprintf(r.out, "timed: %d passes, %d packets; quietest %d passes %.1f ns/pkt, all passes median %.1f\n",
		len(wall), pkts, len(quiet), median(pick(wall, quiet)), median(wall))
	return pkts, nil
}

// recordLags records the report-lag median and tail: the highest
// percentile with at least ten samples beyond it, p95 from 200 samples.
func (r *run) recordLags(lags []float64) {
	tail := tailPercentile(len(lags))
	r.v["report_lag_p50_ms"] = median(lags)
	r.v["report_lag_tail_ms"] = percentile(lags, tail)
	fmt.Fprintf(r.out, "report lag: %d samples, tail = p%.3g\n", len(lags), tail)
}

// closedTraced alternates plain and traced passes for half the run's
// seconds, then times the layers in isolation; it records the per-layer
// metrics and returns the packets delivered.
func (r *run) closedTraced(sys *system, d *driver) (int, error) {
	in, w := r.in, r.w
	tr := newTracer()
	// tracedPass is one traced pass's wall time and the span time inside it.
	type tracedPass struct {
		wall, batch, close time.Duration
		pkts, batchPkts    int
	}
	var plain, traced []float64 // ns per packet
	var tps []tracedPass
	pkts := 0
	minEach := max(1, r.p.minPasses()-1)
	d.lags = d.lags[:0]
	start := time.Now()
	for i := 0; len(traced) < minEach || len(plain) < minEach || time.Since(start).Seconds() < r.p.seconds/2; i++ {
		d.tr = nil
		if i%2 == 1 {
			d.tr = tr
		}
		before := tr.totals()
		t0 := time.Now()
		n, err := d.replay(in.intervals())
		if err != nil {
			return pkts, err
		}
		el := time.Since(t0)
		pkts += n
		if d.tr == nil {
			plain = append(plain, float64(el)/float64(n))
			continue
		}
		after := tr.totals()
		traced = append(traced, float64(el)/float64(n))
		tps = append(tps, tracedPass{
			wall: el, pkts: n,
			batch:     after.total[spanBatch] - before.total[spanBatch],
			batchPkts: after.pkts[spanBatch] - before.pkts[spanBatch],
			close:     after.total[spanInterval] - before.total[spanInterval],
		})
	}
	d.tr = nil
	d.countAllocs = true
	n, err := d.replay(in.intervals())
	d.countAllocs = false
	if err != nil {
		return pkts, err
	}
	pkts += n

	// The ledger adds up the quietest traced passes: their wall time and
	// the spans inside them, so the two describe the same passes.
	var q tracedPass
	for _, i := range quietest(traced) {
		q.wall += tps[i].wall
		q.pkts += tps[i].pkts
		q.batch += tps[i].batch
		q.batchPkts += tps[i].batchPkts
		q.close += tps[i].close
	}
	e2e := float64(q.wall) / float64(q.pkts)
	plainNs := median(pick(plain, quietest(plain)))
	r.v["trace_overhead_pct"] = pairedOverhead(plain, traced)
	fmt.Fprintf(r.out, "traced: %d plain and %d traced passes; quietest passes %.1f ns/pkt plain, %.1f traced\n",
		len(plain), len(traced), plainNs, e2e)
	batch := float64(q.batch) / float64(max(1, q.batchPkts))
	closes := float64(q.close) / float64(q.pkts)
	if err := r.attribute(sys, d, batch, closes, e2e, plainNs, nil); err != nil {
		return pkts, err
	}
	if w.lanes > 0 {
		fmt.Fprintf(r.out, "sh attribution: producer busy %.1f%% (PacketBatch spans), each lane busy %.1f%% (isolated kernel x lane packets), merge %.1f%% (EndInterval spans) of traced wall time\n",
			100*batch/e2e, r.v["kernel.busy_pct"], 100*closes/e2e)
	}
	return pkts, r.writeTrace(tr)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// recordCounts fills the per-layer counts read from the program's own
// telemetry, and the kernel's busy share of untraced wall time.
func (r *run) recordCounts(sys *system, kc kernelCost, e2eNs float64) {
	var pkts, sram, dram, passes uint64
	for _, a := range sys.algorithms() {
		pkts += a.Packets
		sram += a.Mem.SRAMReads + a.Mem.SRAMWrites
		dram += a.Mem.DRAMReads + a.Mem.DRAMWrites
		passes += a.FilterPasses
	}
	p := float64(max(1, pkts))
	r.v["kernel.sram_refs_per_pkt"] = float64(sram) / p
	r.v["kernel.dram_refs_per_pkt"] = float64(dram) / p
	r.v["kernel.passes_per_kpkt"] = float64(passes) / p * 1000

	// Each lane's share of the packets: measured in the pipeline, 1 for a
	// single-lane device.
	shares := []float64{1}
	stalls, hwm, skew := 0.0, 0.0, 1.0
	if sys.pipe != nil {
		lanes := sys.pipe.Stats().Lanes
		shares = shares[:0]
		var total, most, st uint64
		for _, l := range lanes {
			total += l.Packets
			most = max(most, l.Packets)
			st += l.FlushStalls
			hwm = max(hwm, float64(l.QueueHighWater))
		}
		for _, l := range lanes {
			shares = append(shares, float64(l.Packets)/float64(max(1, total)))
		}
		stalls = float64(st) / float64(max(1, total)) * 1000
		skew = float64(most) / (float64(total) / float64(len(lanes)))
	}
	busy := 0.0
	for l, s := range shares {
		busy += kc.laneNs[min(l, len(kc.laneNs)-1)] * s / e2eNs * 100
	}
	r.v["kernel.busy_pct"] = busy / float64(len(shares))
	r.v["stagegraph.flush_stalls_per_kpkt"] = stalls
	r.v["stagegraph.queue_high_water"] = hwm
	r.v["stagegraph.lane_skew"] = skew
}

// ledgerRow is one line of the traced run's attribution table.
type ledgerRow struct {
	layer, what string
	ns          float64
}

// attribute times the trace, flow and kernel layers in isolation, records
// the per-layer metrics every workload shares, and prints the ledger: each
// layer's self time per packet against e2e (wall time, or CPU time for the
// open loop), with unattributed_ns_per_pkt = e2e - the sum of the rows.
// busyBase is the untraced ns per packet the kernel's busy share is taken
// of; extra rows are layers only some workloads run.
func (r *run) attribute(sys *system, d *driver, batch, closes, e2e, busyBase float64, extra []ledgerRow) error {
	w := r.w
	replay, key := isoReplay(r.in), isoKey(r.in)
	kc, err := isoKernel(w, r.in)
	if err != nil {
		return err
	}
	inline := 0.0 // kernel time on the replay goroutine; lanes run theirs in parallel
	if w.lanes == 0 {
		inline = kc.nsPerPkt
	}
	r.v["trace.replay_ns_per_pkt"] = replay
	r.v["flow.key_ns_per_pkt"] = key
	r.v["kernel.process_ns_per_pkt"] = kc.nsPerPkt
	r.v["kernel.end_interval_us"] = kc.endUs
	r.v["consumer.batch_ns_per_pkt"] = batch
	r.v["consumer.self_ns_per_pkt"] = batch - key - inline
	r.v["consumer.end_interval_us"] = median(durationsMs(d.lags)) * 1e3
	r.v["consumer.allocs_per_interval"] = mean(d.endAllocs)
	r.recordCounts(sys, kc, busyBase)

	closeWhat := w.consumerModule() + " EndInterval (span)"
	if w.export {
		closeWhat = "device EndInterval incl. v5 encode + Enqueue (span)"
	}
	rows := []ledgerRow{
		{"trace", "trace.Replay (isolated)", replay},
		{"flow", "FiveTuple.Key (isolated)", key},
	}
	if w.lanes == 0 {
		rows = append(rows, ledgerRow{"kernel", w.kernelModule() + " ProcessBatch (isolated)", inline})
	}
	rows = append(rows,
		ledgerRow{"consumer", w.consumerModule() + " PacketBatch self (span - key - inline kernel)", batch - key - inline},
		ledgerRow{"close", closeWhat, closes})
	rows = append(rows, extra...)

	fmt.Fprintf(r.out, "%-10s %-58s %12s %8s\n", "layer", "measured as", "ns/pkt", "share")
	sum := 0.0
	for _, row := range rows {
		fmt.Fprintf(r.out, "%-10s %-58s %12.2f %7.1f%%\n", row.layer, row.what, row.ns, 100*row.ns/e2e)
		sum += row.ns
	}
	r.v["unattributed_ns_per_pkt"] = e2e - sum
	fmt.Fprintf(r.out, "%-10s %-58s %12.2f %7.1f%%\n", "sum", "", sum, 100*sum/e2e)
	fmt.Fprintf(r.out, "%-10s %-58s %12.2f\n", "e2e", "traced passes", e2e)
	fmt.Fprintf(r.out, "%-10s %-58s %12.2f %7.1f%%\n", "unattrib.", "e2e - sum", e2e-sum, 100*(e2e-sum)/e2e)
	return nil
}

func (r *run) writeTrace(tr *tracer) error {
	dir := r.p.outDir
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "hhbench-traces")
	}
	path, err := tr.writeChrome(dir, fmt.Sprintf("%s-seed%d", r.w.name, r.p.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "trace: %d spans (%d kept) written to %s\n", sumCounts(tr), len(tr.spans), path)
	return nil
}

func sumCounts(tr *tracer) int {
	n := 0
	for _, c := range tr.count {
		n += c
	}
	return n
}

// verify replays the trace once into a fresh consumer that keeps its
// reports, checks every estimate against the exact counts, and records
// the accuracy metrics.
func (r *run) verify() ([]traffic.IntervalReport, error) {
	in := r.in
	sys, err := r.w.newSystem(in.meta, true)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	n, err := newDriver(in, sys.consumer()).replay(in.intervals())
	if err != nil {
		return nil, err
	}
	reports := sys.reports()
	r.ck.check(len(reports) == in.intervals(), "verification produced %d reports for %d intervals", len(reports), in.intervals())
	counted, lost := sys.counted()
	r.ck.check(counted == uint64(n) && lost == 0, "verification packet loss: %d offered, %d counted, %d shed", n, counted, lost)
	for _, rep := range reports {
		r.checkReport(rep.Interval, rep.Threshold, rep.Estimates, &r.acc)
	}
	r.recordAccuracy()
	return reports, nil
}

// checkReport checks that no estimate exceeds its flow's exact count in the
// interval and, with acc, accumulates accuracy over the large flows.
func (r *run) checkReport(interval int, threshold uint64, ests []traffic.Estimate, acc *accuracy) {
	truth := r.in.truth[interval%r.in.intervals()]
	over := 0
	for _, e := range ests {
		if e.Bytes > truth.Bytes(e.Key) {
			over++
		}
	}
	r.ck.check(over == 0, "interval %d: %d estimates exceed the exact count", interval, over)
	if acc == nil {
		return
	}
	idx := make(map[traffic.FlowKey]uint64, len(ests))
	for _, e := range ests {
		idx[e.Key] = e.Bytes
	}
	for _, f := range truth.AboveThreshold(threshold) {
		acc.large++
		est, ok := idx[f.Key]
		if !ok {
			acc.missed++
			continue
		}
		acc.reported++
		acc.errShareT += math.Abs(float64(f.Bytes)-float64(est)) / float64(threshold)
	}
}

func (r *run) recordAccuracy() {
	a := r.acc
	r.ck.check(a.reported > 0, "no large flow was reported")
	r.v["large_err_pct"] = 100 * a.errShareT / float64(max(1, a.reported))
	r.v["kernel.large_fn_pct"] = 100 * float64(a.missed) / float64(max(1, a.large))
	fmt.Fprintf(r.out, "accuracy: %d large flows, %d reported, %d missed\n", a.large, a.reported, a.missed)
}

// exportProbe pushes the first few verification reports through the export
// path, one at a time, so a closed-loop traced run measures the export
// layers on its own reports.
func (r *run) exportProbe(reports []traffic.IntervalReport) error {
	dir, err := os.MkdirTemp("", "hhbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	k := min(len(reports), probeReports)
	c, err := newChain(dir, k, r.w.capacity(), 0, r.in.meta.Interval)
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		c.send(reports[i])
		if err := c.waitApplied(i, 10*time.Second); err != nil {
			c.drain() //nolint:errcheck // already failing
			return err
		}
	}
	snapErr := c.snapshot()
	r.ck.check(snapErr == nil, "collector snapshot: %v", snapErr)
	return r.finishChain(c, dir)
}

// finishChain drains and recovers a chain, runs its checks, and records
// its per-layer metrics.
func (r *run) finishChain(c *chain, dir string) error {
	drainErr := c.drain()
	rd, recovered, recErr := c.recover()
	c.checkDelivery(&r.ck, drainErr, recovered, recErr)
	c.layerMetrics(r.v)
	r.v["reliable.recover_ms"] = float64(rd) / 1e6
	if len(c.frames) == 0 {
		return fmt.Errorf("no report reached the export path")
	}
	wal, err := isoWALDeliver(filepath.Join(dir, "iso-wal"), c.frames[0])
	r.v["reliable.wal_deliver_us_per_frame"] = wal
	return err
}

// pacedSystem is the export-paced workload's program: device plus chain.
type pacedSystem struct {
	sys *system
	c   *chain
}

// exportPaced runs the open-loop workload: one interval due every period,
// each interval's packets delivered before its EndInterval at the due time,
// every report exported through the full chain.
func (r *run) exportPaced() error {
	in, w, p := r.in, r.w, r.p
	period := p.period()
	reports := max(1, int(math.Round(p.seconds/period.Seconds())))
	heap0 := liveHeapMiB()
	ps, setup, err := setupQuiet(p.setups(), func() (*pacedSystem, error) {
		dir, err := os.MkdirTemp("", "hhbench-export-")
		if err != nil {
			return nil, err
		}
		c, err := newChain(dir, reports, w.capacity(), snapshotEvery, in.meta.Interval)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		sys, err := w.newSystem(in.meta, false)
		if err != nil {
			c.discard()
			return nil, err
		}
		return &pacedSystem{sys, c}, nil
	}, func(ps *pacedSystem) { ps.c.discard() })
	if err != nil {
		return err
	}
	c, dev := ps.c, ps.sys.dev
	defer os.RemoveAll(c.dir)
	r.v["setup_s"] = setup
	r.v["state_mb"] = liveHeapMiB() - heap0

	thresholds := make([]uint64, 0, reports)
	dev.OnReport = func(rep traffic.IntervalReport) {
		thresholds = append(thresholds, rep.Threshold)
		c.send(rep)
	}
	d := newDriver(in, dev)
	due := make([]time.Duration, 0, reports)
	var start time.Time
	var late time.Duration
	lateCount := 0
	d.beforeEnd = func(g int) {
		at := start.Add(time.Duration(g+1) * period)
		time.Sleep(time.Until(at))
		l := time.Since(at)
		late = max(late, l)
		if l > period/10 {
			lateCount++
		}
		due = append(due, at.Sub(c.epoch))
	}

	// Under -trace 1 every other pass is traced.
	tr := newTracer()
	var passes []pacedPass
	offered, tracedPkts := 0, 0
	m0 := mallocs()
	start = time.Now()
	for pass, done := 0, 0; done < reports; pass++ {
		k := min(in.intervals(), reports-done)
		traced := p.traced && pass%2 == 1
		// Counting allocations stops the world, so it runs on the warm-up
		// pass, which the traced/plain comparison leaves out.
		d.tr, c.tr, d.countAllocs = nil, nil, p.traced && pass == 0
		if traced {
			d.tr, c.tr = tr, tr
		}
		c0 := cpuTime()
		n, err := d.replay(k)
		if err != nil {
			return err
		}
		passes = append(passes, pacedPass{cpu: float64(cpuTime()-c0) / float64(n), first: done, reports: k, traced: traced})
		if traced {
			tracedPkts += n
		}
		offered += n
		done += k
	}
	waitErr := c.waitApplied(reports-1, 10*time.Second)
	allocs := mallocs() - m0
	end := c.appliedAt(reports - 1)
	d.tr, c.tr = nil, nil
	r.ck.check(waitErr == nil, "%v", waitErr)
	r.ck.check(lateCount <= reports/100 && late < period,
		"the paced generator ran over 10%% of the %v period late on %d of %d intervals (at most %v)", period, lateCount, reports, late)

	lags := make([]float64, len(c.frames))
	reached := 0
	for ri := range c.frames {
		if a := c.appliedAt(ri); a > 0 && ri < len(due) {
			lags[ri] = float64(a-due[ri]) / 1e6
			reached++
		}
	}
	r.ck.check(reached == reports, "%d of %d reports reached the collector", reached, reports)
	// The open loop's passes cannot be ranked by speed the way the closed
	// loops' are: per report, lag hardly follows the CPU time around it
	// (correlation 0.04-0.4 measured; it is mostly fsync latency), and
	// CPU per packet drifts with the machine over whole runs, which the
	// quietest passes or intervals of a run did not filter (10-run spread
	// 9.7% and 9.8% against 9.3% for all of them). Every steady pass counts.
	steady, tracedSteady := steadyPasses(passes, false), steadyPasses(passes, true)
	var steadyLags []float64
	for _, ps := range steady {
		steadyLags = append(steadyLags, lags[ps.first:ps.first+ps.reports]...)
	}
	r.v["pkts_per_s"] = float64(offered) / (end - start.Sub(c.epoch)).Seconds()
	r.v["cpu_ns_per_pkt"] = medianCPU(steady)
	r.v["allocs_per_kpkt"] = float64(allocs) / (float64(offered) / 1000)
	r.recordLags(steadyLags)
	fmt.Fprintf(r.out, "paced: %d reports every %v, %d packets, %d passes (%d steady), generator at most %v late\n",
		reports, period, offered, len(passes), len(steady), late.Round(time.Microsecond))

	in.computeTruth()
	counted, lost := ps.sys.counted()
	r.ck.check(counted == uint64(offered) && lost == 0,
		"packet loss: %d packets offered, %d counted, %d shed", offered, counted, lost)
	for ri, frames := range c.frames {
		var acc *accuracy
		if ri < in.intervals() {
			acc = &r.acc
		}
		r.checkReport(ri, thresholds[ri], decodeEstimates(frames), acc)
	}
	r.recordAccuracy()

	if err := r.finishChain(c, c.dir); err != nil {
		return err
	}
	if !p.traced {
		return nil
	}

	// Per-layer attribution of the traced passes, in CPU time: the open
	// loop idles between intervals, so wall time says nothing about cost.
	cpuTraced, cpuPlain := medianCPU(tracedSteady), medianCPU(steady)
	framesPerPkt := r.v["netflow.frames_per_report"] * float64(reports) / float64(offered)
	collect := framesPerPkt * 1e3 * (r.v["netflow.decode_us_per_frame"] + r.v["collector.apply_us_per_frame"] + r.v["reliable.wal_deliver_us_per_frame"])
	r.v["trace_overhead_pct"] = pairedOverhead(cpuOf(steady), cpuOf(tracedSteady))
	fmt.Fprintf(r.out, "traced: %d plain and %d traced steady passes; CPU %.1f ns/pkt plain, %.1f traced\n",
		len(steady), len(tracedSteady), cpuPlain, cpuTraced)
	wallPerPkt := float64(end-start.Sub(c.epoch)) / float64(offered)
	batch := float64(tr.total[spanBatch]) / float64(max(1, tr.pkts[spanBatch]))
	closes := float64(tr.total[spanInterval]) / float64(max(1, tracedPkts))
	if err := r.attribute(ps.sys, d, batch, closes, cpuTraced, wallPerPkt, []ledgerRow{
		{"collector", "decode + apply (spans) + WAL deliver (isolated)", collect},
	}); err != nil {
		return err
	}
	c.collectorSpans(tr, 0)
	return r.writeTrace(tr)
}

// pacedPass is one open-loop pass over the trace.
type pacedPass struct {
	cpu            float64 // process CPU ns per packet while the pass ran
	first, reports int     // the pass's reports
	traced         bool
}

// steadyPasses returns the traced or plain passes, leaving out the warm-up
// pass (its reports are still small) and a partial last pass unless
// nothing else is left.
func steadyPasses(passes []pacedPass, traced bool) []pacedPass {
	var steady, all []pacedPass
	for i, ps := range passes {
		if ps.traced != traced {
			continue
		}
		all = append(all, ps)
		if i > 0 && ps.reports == passes[0].reports {
			steady = append(steady, ps)
		}
	}
	if len(steady) == 0 {
		return all
	}
	return steady
}

func cpuOf(passes []pacedPass) []float64 {
	cpu := make([]float64, len(passes))
	for i, ps := range passes {
		cpu[i] = ps.cpu
	}
	return cpu
}

func medianCPU(passes []pacedPass) float64 { return median(cpuOf(passes)) }

// pairedOverhead is the median, over adjacent plain and traced passes
// (plain[i] ran next to traced[i]), of how much slower the traced one was,
// in percent. Pairing neighbours cancels the machine's slow drift.
func pairedOverhead(plain, traced []float64) float64 {
	n := min(len(plain), len(traced))
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = traced[i] / plain[i]
	}
	return (median(ratios) - 1) * 100
}

// decodeEstimates turns one report's frames back into estimates, the way
// the collector sees them.
func decodeEstimates(frames [][]byte) []traffic.Estimate {
	var ests []traffic.Estimate
	for _, f := range frames {
		p, err := netflow.DecodeV5(f)
		if err != nil {
			continue
		}
		for _, rec := range p.Records {
			pkt := traffic.Packet{SrcIP: rec.SrcIP, DstIP: rec.DstIP, SrcPort: rec.SrcPort, DstPort: rec.DstPort, Proto: rec.Proto}
			ests = append(ests, traffic.Estimate{Key: traffic.FiveTuple.Key(&pkt), Bytes: uint64(rec.Bytes)})
		}
	}
	return ests
}
