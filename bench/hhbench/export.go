package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	traffic "repro"
	"repro/internal/netflow"
	"repro/internal/netflow/reliable"
)

// collector is the benchmark's copy of cmd/nfcollector's aggregation (a
// main package cannot be imported): per-flow byte totals keyed by the v5
// record's addressing fields, with a gob snapshot for the journal.
type collector struct {
	mu    sync.Mutex
	bytes map[netflow.V5Record]uint64
	bad   uint64
}

func newCollector() *collector {
	return &collector{bytes: make(map[netflow.V5Record]uint64)}
}

func (a *collector) add(p *netflow.V5Packet) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range p.Records {
		key := r
		key.Bytes, key.Packets = 0, 0
		a.bytes[key] += uint64(r.Bytes)
	}
}

func (a *collector) addFrame(payload []byte) {
	p, err := netflow.DecodeV5(payload)
	if err != nil {
		a.mu.Lock()
		a.bad++
		a.mu.Unlock()
		return
	}
	a.add(p)
}

// state serializes the totals; the journal calls it under its lock.
func (a *collector) state() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(a.bytes); err != nil {
		return nil
	}
	if err := enc.Encode(a.bad); err != nil {
		return nil
	}
	return buf.Bytes()
}

func (a *collector) restore(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	dec := gob.NewDecoder(bytes.NewReader(b))
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := dec.Decode(&a.bytes); err != nil {
		return fmt.Errorf("collector snapshot: %w", err)
	}
	return dec.Decode(&a.bad)
}

func (a *collector) equal(b *collector) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	return a.bad == b.bad && maps.Equal(a.bytes, b.bytes)
}

// chain is the export path of cmd/hhdevice -export-tcp -spool-dir feeding
// cmd/nfcollector -listen-tcp -state-dir, in one process over loopback:
// v5 encode → reliable.Exporter with a disk spool → TCP → reliable.Server
// with the collector Journal → decode → aggregate. It stamps every frame at
// the handler so report lag and per-layer costs come out of one run.
type chain struct {
	dir      string
	journal  *reliable.Journal
	server   *reliable.Server
	exporter *reliable.Exporter
	enc      *netflow.Exporter
	col      *collector
	addr     string
	interval time.Duration
	epoch    time.Time

	// Main-goroutine (report path) records, one per report.
	frames   [][][]byte
	encodeD  []time.Duration
	enqueueD []time.Duration
	enqueued []time.Duration // Enqueue return, since epoch
	seq      uint64          // last sequence number handed out

	// Written by the report path, read by the handler.
	reportEnd []atomic.Uint64 // last sequence number of each report

	// Handler stamps per sequence number, since epoch.
	entry, decoded, applied []atomic.Int64

	// Handler state; the journal lock serializes handler calls.
	cur       int
	snapEvery int
	snapC     chan struct{}
	snapWG    sync.WaitGroup
	snapD     []time.Duration // snapshot goroutine only until drained
	snapErr   error
	// tr receives report-path spans (encode, enqueue); nil when untraced.
	tr *tracer
}

// framesPerReportBound is the most frames one report of an algorithm with
// the given flow-memory capacity can need: a report holds one estimate per
// flow-memory entry, and the memory refuses inserts past its capacity.
func framesPerReportBound(capacity int) int {
	return (capacity+netflow.V5MaxRecords-1)/netflow.V5MaxRecords + 1
}

// newChain opens a fresh journal and spool under dir and connects them.
// snapEvery > 0 snapshots the collector totals after every snapEvery
// reports, from a goroutine of the collector's own.
func newChain(dir string, maxReports, capacity, snapEvery int, interval time.Duration) (*chain, error) {
	c := &chain{
		dir:       dir,
		enc:       netflow.NewExporter(traffic.FiveTuple),
		col:       newCollector(),
		interval:  interval,
		epoch:     time.Now(),
		frames:    make([][][]byte, 0, maxReports),
		encodeD:   make([]time.Duration, 0, maxReports),
		enqueueD:  make([]time.Duration, 0, maxReports),
		enqueued:  make([]time.Duration, 0, maxReports),
		reportEnd: make([]atomic.Uint64, maxReports),
		snapEvery: snapEvery,
		snapC:     make(chan struct{}, 1),
	}
	maxFrames := maxReports*framesPerReportBound(capacity) + 1
	c.entry = make([]atomic.Int64, maxFrames)
	c.decoded = make([]atomic.Int64, maxFrames)
	c.applied = make([]atomic.Int64, maxFrames)

	j, rec, err := reliable.OpenJournal(reliable.JournalConfig{Dir: filepath.Join(dir, "wal")}, nil)
	if err != nil {
		return nil, err
	}
	if err := c.col.restore(rec.State); err != nil {
		j.Close()
		return nil, err
	}
	for _, f := range rec.Frames {
		c.col.addFrame(f.Payload)
	}
	c.journal = j
	srv, addr, err := reliable.Listen("127.0.0.1:0", reliable.ServerConfig{Journal: j}, c.handle)
	if err != nil {
		j.Close()
		return nil, err
	}
	c.server, c.addr = srv, addr.String()
	e, err := reliable.NewExporter(c.exporterConfig(maxFrames), nil)
	if err != nil {
		srv.Close()
		j.Close()
		return nil, err
	}
	c.exporter = e
	c.snapWG.Add(1)
	go c.snapshotter()
	return c, nil
}

func (c *chain) exporterConfig(maxFrames int) reliable.ExporterConfig {
	return reliable.ExporterConfig{
		Addr: c.addr, ExporterID: 1, SpoolDir: filepath.Join(c.dir, "spool"),
		SpoolFrames: max(1024, maxFrames),
	}
}

// send encodes one interval report and hands it to the exporter. It runs
// on the device's report path (Device.OnReport).
func (c *chain) send(r traffic.IntervalReport) {
	t0 := time.Now()
	frames := c.enc.Export(r.Estimates, time.Duration(r.Interval+1)*c.interval)
	t1 := time.Now()
	ri := len(c.frames)
	c.frames = append(c.frames, frames)
	c.seq += uint64(len(frames))
	c.reportEnd[ri].Store(c.seq)
	c.exporter.Enqueue(frames)
	t2 := time.Now()
	c.encodeD = append(c.encodeD, t1.Sub(t0))
	c.enqueueD = append(c.enqueueD, t2.Sub(t1))
	c.enqueued = append(c.enqueued, t2.Sub(c.epoch))
	if c.tr != nil {
		c.tr.record(spanEncode, c.tr.newID(), 0, t0, t1, 0)
		c.tr.record(spanEnqueue, c.tr.newID(), 0, t1, t2, 0)
	}
}

// handle is the collector's frame handler: decode, aggregate, stamp. The
// server calls it inside Journal.Deliver, after the WAL append.
func (c *chain) handle(_, seq uint64, payload []byte) {
	t0 := time.Now()
	p, err := netflow.DecodeV5(payload)
	t1 := time.Now()
	if err != nil {
		c.col.mu.Lock()
		c.col.bad++
		c.col.mu.Unlock()
	} else {
		c.col.add(p)
	}
	t2 := time.Now()
	if seq < uint64(len(c.entry)) {
		c.entry[seq].Store(int64(t0.Sub(c.epoch)))
		c.decoded[seq].Store(int64(t1.Sub(c.epoch)))
		c.applied[seq].Store(int64(t2.Sub(c.epoch)))
	}
	if c.cur < len(c.reportEnd) && seq == c.reportEnd[c.cur].Load() {
		c.cur++
		if c.snapEvery > 0 && c.cur%c.snapEvery == 0 {
			select {
			case c.snapC <- struct{}{}:
			default:
			}
		}
	}
}

// snapshotter persists the collector totals whenever the handler asks.
func (c *chain) snapshotter() {
	defer c.snapWG.Done()
	for range c.snapC {
		if err := c.snapshot(); err != nil && c.snapErr == nil {
			c.snapErr = err
		}
	}
}

func (c *chain) snapshot() error {
	t0 := time.Now()
	err := c.journal.Snapshot(c.col.state)
	c.snapD = append(c.snapD, time.Since(t0))
	return err
}

// appliedAt returns when report ri's last frame was applied (0 = not yet).
func (c *chain) appliedAt(ri int) time.Duration {
	seq := c.reportEnd[ri].Load()
	if seq == 0 || seq >= uint64(len(c.applied)) {
		return 0
	}
	return time.Duration(c.applied[seq].Load())
}

// waitApplied polls until report ri's last frame is applied or timeout.
func (c *chain) waitApplied(ri int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for c.appliedAt(ri) == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("report %d not applied at the collector within %v", ri, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// drain closes the exporter (waiting for acks), the server, the
// snapshotter and the journal, in the order a clean shutdown uses. The
// error reports frames left undelivered.
func (c *chain) drain() error {
	closeErr := c.exporter.Close()
	c.server.Shutdown(time.Second)
	close(c.snapC)
	c.snapWG.Wait()
	if err := c.journal.Close(); err != nil && closeErr == nil {
		closeErr = err
	}
	return closeErr
}

// discard tears the chain down and deletes its directory (set-up repeats).
func (c *chain) discard() {
	c.drain() //nolint:errcheck // nothing was sent
	os.RemoveAll(c.dir)
}

// recover reopens the collector journal and the exporter spool after a
// drain, the way restarted processes would, and returns how long that took
// and the totals the collector recovered.
func (c *chain) recover() (time.Duration, *collector, error) {
	t0 := time.Now()
	j, rec, err := reliable.OpenJournal(reliable.JournalConfig{Dir: filepath.Join(c.dir, "wal")}, nil)
	if err != nil {
		return 0, nil, err
	}
	col := newCollector()
	if err := col.restore(rec.State); err != nil {
		j.Close()
		return 0, nil, err
	}
	for _, f := range rec.Frames {
		col.addFrame(f.Payload)
	}
	e, err := reliable.NewExporter(c.exporterConfig(len(c.entry)), nil)
	d := time.Since(t0)
	if err != nil {
		j.Close()
		return 0, nil, err
	}
	left := e.Recovered().Frames
	e.Close() //nolint:errcheck // nothing spooled to drain
	if err := j.Close(); err != nil {
		return 0, nil, err
	}
	if left != 0 {
		return d, col, fmt.Errorf("exporter spool recovered %d unacknowledged frames after a clean drain", left)
	}
	return d, col, nil
}

// expected aggregates every frame the report path enqueued, decoded on the
// benchmark side: what the collector must hold byte for byte.
func (c *chain) expected() *collector {
	want := newCollector()
	for _, frames := range c.frames {
		for _, f := range frames {
			want.addFrame(f)
		}
	}
	return want
}

// checkDelivery adds the export path's correctness checks: totals
// byte-exact against the enqueued frames, no duplicates or gaps, no frames
// dropped, recovered totals equal to the live ones.
func (c *chain) checkDelivery(ck *checker, drainErr error, recovered *collector, recoverErr error) {
	st := c.server.Stats()
	tel := c.exporter.Telemetry().Snapshot()
	ck.check(drainErr == nil, "export drain: %v", drainErr)
	ck.check(tel.FramesDropped == 0, "exporter dropped %d frames", tel.FramesDropped)
	ck.check(st.Duplicates == 0 && st.Gaps == 0, "collector saw %d duplicates and %d gaps", st.Duplicates, st.Gaps)
	ck.check(c.col.equal(c.expected()), "collector totals differ from the frames enqueued")
	ck.check(c.col.bad == 0, "collector failed to decode %d frames", c.col.bad)
	ck.check(c.snapErr == nil, "collector snapshot: %v", c.snapErr)
	ck.check(recoverErr == nil, "recovery: %v", recoverErr)
	ck.check(recovered != nil && recovered.equal(c.col), "recovered collector totals differ from the live totals")
}

// layerMetrics fills the netflow, collector and reliable per-layer
// metrics from the chain's stamps and telemetry.
func (c *chain) layerMetrics(v map[string]float64) {
	var frames, bytes, deliveredFrames int
	var decode, apply, transport, service []float64
	for ri, fs := range c.frames {
		frames += len(fs)
		for _, f := range fs {
			bytes += len(f)
		}
		last := c.reportEnd[ri].Load()
		first := last - uint64(len(fs)) + 1
		if last >= uint64(len(c.entry)) || len(fs) == 0 {
			continue
		}
		for s := first; s <= last; s++ {
			e, d, a := c.entry[s].Load(), c.decoded[s].Load(), c.applied[s].Load()
			if a == 0 {
				continue
			}
			deliveredFrames++
			decode = append(decode, float64(d-e)/1e3)
			apply = append(apply, float64(a-d)/1e3)
			if s > first {
				service = append(service, float64(e-c.entry[s-1].Load())/1e3)
			}
		}
		if e := c.entry[first].Load(); e != 0 && ri < len(c.enqueued) {
			transport = append(transport, float64(time.Duration(e)-c.enqueued[ri])/1e6)
		}
	}
	reports := float64(max(1, len(c.frames)))
	us := func(ds []time.Duration) float64 { return median(durationsMs(ds)) * 1e3 }
	v["netflow.encode_us_per_report"] = us(c.encodeD)
	v["netflow.frames_per_report"] = float64(frames) / reports
	v["netflow.bytes_per_report"] = float64(bytes) / reports
	v["netflow.decode_us_per_frame"] = median(decode)
	v["collector.apply_us_per_frame"] = median(apply)
	v["reliable.enqueue_us_per_report"] = us(c.enqueueD)
	v["reliable.transport_ms_p50"] = median(transport)
	v["reliable.frame_service_us_p50"] = median(service)
	v["reliable.snapshot_ms"] = median(durationsMs(c.snapD))

	spool := c.exporter.Durability().Snapshot()
	tel := c.exporter.Telemetry().Snapshot()
	wal := c.journal.Durability().Snapshot()
	st := c.server.Stats()
	v["reliable.spool_fsyncs_per_report"] = float64(spool.Fsyncs) / reports
	v["reliable.spool_high_water"] = float64(tel.SpoolHighWater)
	v["reliable.redelivered"] = float64(tel.Redelivered)
	v["reliable.wal_fsyncs_per_frame"] = float64(wal.Fsyncs) / float64(max(1, wal.Appends))
	v["reliable.duplicates"] = float64(st.Duplicates)
	v["reliable.pauses"] = float64(st.PausesSent)
}

// collectorSpans adds the handler's decode and apply spans of reports from
// `from` on to tr, rebuilt from the stamps once the collector has stopped.
func (c *chain) collectorSpans(tr *tracer, from int) {
	at := func(ns int64) time.Time { return c.epoch.Add(time.Duration(ns)) }
	for ri := from; ri < len(c.frames); ri++ {
		last := c.reportEnd[ri].Load()
		for s := last - uint64(len(c.frames[ri])) + 1; s <= last && s < uint64(len(c.entry)); s++ {
			e, d, a := c.entry[s].Load(), c.decoded[s].Load(), c.applied[s].Load()
			if a == 0 {
				continue
			}
			tr.record(spanDecode, tr.newID(), int32(ri+1), at(e), at(d), 0)
			tr.record(spanApply, tr.newID(), int32(ri+1), at(d), at(a), 0)
		}
	}
}

// isoWALDeliver times Journal.Deliver alone, on a fresh journal in the same
// filesystem, over up to 64 of the workload's own frames; µs per frame.
func isoWALDeliver(dir string, frames [][]byte) (float64, error) {
	j, _, err := reliable.OpenJournal(reliable.JournalConfig{Dir: dir}, nil)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	frames = frames[:min(len(frames), 64)]
	ds := make([]time.Duration, 0, len(frames))
	for i, f := range frames {
		t0 := time.Now()
		j.Deliver(1, uint64(i+1), f, nil)
		ds = append(ds, time.Since(t0))
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return median(durationsMs(ds)) * 1e3, nil
}
