// Command hhdevice runs a complete traffic measurement device over a trace
// and prints the heavy hitters it identifies per measurement interval —
// the tool a network operator would run at a vantage point.
//
// Usage:
//
//	hhdevice -alg msf -def dstIP -threshold 0.001 mag.trace
//	hhdevice -alg sh -preset MAG -scale 0.05 -adapt -entries 512 -top 5
//	hhdevice -alg sh -preset MAG -shards 4 -overload degrade -listen :8080
//	hhdevice -alg msf -preset MAG -export-tcp 127.0.0.1:2056    # spooled at-least-once export
//	hhdevice -alg msf -ab sh -preset MAG                        # A/B: race two algorithms, score agreement
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/core/device"
	"repro/internal/core/multistage"
	"repro/internal/core/sampleandhold"
	"repro/internal/debugserver"
	"repro/internal/faultinject"
	"repro/internal/flow"
	"repro/internal/hw"
	"repro/internal/netflow"
	"repro/internal/netflow/reliable"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// options collects the command-line configuration.
type options struct {
	algName     string
	defName     string
	threshold   float64
	entries     int
	stages      int
	buckets     int
	hash        string
	oversamp    float64
	rate        int
	adaptive    bool
	export      string
	exportTCP   string
	spool       int
	spoolDir    string
	fsyncName   string
	exportID    uint64
	exportFault string
	drainWait   time.Duration
	heartbeat   time.Duration
	pauseWait   time.Duration
	highWater   float64
	reportPause time.Duration
	listen      string
	shards      int
	overload    pipeline.OverloadPolicy
	degrade     float64
	restart     bool
	ab          string
	top         int
	seed        int64
	preset      string
	scale       float64
	intervals   int
	args        []string
}

func main() {
	var (
		o        options
		overload string
	)
	flag.StringVar(&o.algName, "alg", "msf", "algorithm: sh, msf, netflow")
	flag.StringVar(&o.defName, "def", "5-tuple", "flow definition: 5-tuple, dstIP, ASpair")
	flag.Float64Var(&o.threshold, "threshold", 0.001, "large-flow threshold as a fraction of link capacity")
	flag.IntVar(&o.entries, "entries", 1024, "flow memory entries")
	flag.IntVar(&o.stages, "stages", 4, "filter stages (msf)")
	flag.IntVar(&o.buckets, "buckets", 1024, "counters per stage (msf)")
	flag.StringVar(&o.hash, "hash", "", "stage hash family (msf): tabulation (default), multiplyshift, doublehash")
	flag.Float64Var(&o.oversamp, "oversampling", 4, "oversampling factor (sh)")
	flag.IntVar(&o.rate, "rate", 16, "sampling rate 1-in-x (netflow)")
	flag.BoolVar(&o.adaptive, "adapt", false, "enable dynamic threshold adaptation (Figure 5)")
	flag.StringVar(&o.export, "export", "", "export reports as NetFlow v5 over UDP to this address (fire-and-forget baseline)")
	flag.StringVar(&o.exportTCP, "export-tcp", "", "export reports over the spooled at-least-once TCP transport to this address")
	flag.IntVar(&o.spool, "export-spool", 0, "reliable export spool size in frames (0 = default 1024)")
	flag.StringVar(&o.spoolDir, "export-spool-dir", "", "back the reliable export spool with a durable journal in this directory; a restarted device replays unacked frames and skips reports already journaled")
	flag.StringVar(&o.fsyncName, "export-fsync", "batch", "spool journal fsync policy: frame, batch, timer, none")
	flag.Uint64Var(&o.exportID, "export-id", 0, "stable exporter ID for the reliable transport (0 = derive from wall clock; set explicitly with -export-spool-dir so restarts keep their dedup state)")
	flag.StringVar(&o.exportFault, "export-fault", "", "inject deterministic spool disk faults, e.g. shortwrite=3,syncdelay=5ms (crash-test hook)")
	flag.DurationVar(&o.drainWait, "export-drain", 0, "how long Close waits for spooled frames to be acked (0 = default 3s)")
	flag.DurationVar(&o.heartbeat, "export-heartbeat", 0, "heartbeat interval on an idle reliable TCP connection so the collector's liveness check keeps it (0 = default 10s, negative disables)")
	flag.DurationVar(&o.pauseWait, "export-pause-timeout", 0, "re-dial if the collector holds the connection paused longer than this (0 = default 30s, negative disables)")
	flag.Float64Var(&o.highWater, "export-highwater", 0, "spool occupancy fraction that raises backpressure on the measurement path (0 = default 0.75)")
	flag.DurationVar(&o.reportPause, "report-pause", 0, "pause after each exported interval report (paces single-lane replay for crash testing)")
	flag.StringVar(&o.listen, "listen", "", "serve /debug/vars, /debug/pprof and /healthz on this address while running")
	flag.IntVar(&o.shards, "shards", 0, "shard the device across this many parallel lanes (0 = auto: one lane per spare core, probed from the host topology)")
	flag.StringVar(&overload, "overload", "block", "lane overload policy: block, drop-newest, drop-oldest, degrade (sharded runs)")
	flag.Float64Var(&o.degrade, "degrade-fraction", 0, "per-packet keep probability for -overload degrade (0 = default)")
	flag.BoolVar(&o.restart, "restart-lanes", false, "restart a panicking lane with a fresh algorithm instead of quarantining it")
	flag.StringVar(&o.ab, "ab", "", "race -alg against this second algorithm on the same stream and score their agreement per interval")
	flag.IntVar(&o.top, "top", 10, "heavy hitters to print per interval")
	flag.Int64Var(&o.seed, "seed", 1, "algorithm seed")
	flag.StringVar(&o.preset, "preset", "", "run on a synthetic preset instead of a file")
	flag.Float64Var(&o.scale, "scale", 0.05, "scale factor for -preset")
	flag.IntVar(&o.intervals, "intervals", 6, "intervals for -preset")
	flag.Parse()
	o.args = flag.Args()

	policy, err := pipeline.OverloadPolicyByName(overload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhdevice:", err)
		os.Exit(1)
	}
	o.overload = policy
	if o.shards == 0 {
		// Auto-shard from the host topology: one lane per spare core.
		// Threshold adaptation is per lane and only meaningful single-lane,
		// so -adapt pins the auto answer to 1.
		if o.adaptive {
			o.shards = 1
		} else {
			topo := hw.Probe()
			o.shards = topo.DefaultShards()
			if o.shards > 1 {
				fmt.Printf("auto-sharding: %d lanes (%d CPUs, GOMAXPROCS %d); pin with -shards\n",
					o.shards, topo.NumCPU, topo.GOMAXPROCS)
			}
		}
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "hhdevice:", err)
		os.Exit(1)
	}
}

func openSource(o options) (trace.Source, func() error, error) {
	if o.preset != "" {
		cfg, err := trace.Preset(o.preset)
		if err != nil {
			return nil, nil, err
		}
		cfg.Seed = o.seed
		if o.scale != 1 {
			cfg = cfg.Scaled(o.scale)
		}
		if o.intervals > 0 {
			cfg = cfg.WithIntervals(o.intervals)
		}
		g, err := trace.NewGenerator(cfg)
		return g, func() error { return nil }, err
	}
	if len(o.args) != 1 {
		return nil, nil, fmt.Errorf("need exactly one trace file or -preset")
	}
	f, err := os.Open(o.args[0])
	if err != nil {
		return nil, nil, err
	}
	if strings.HasSuffix(o.args[0], ".pcap") {
		// Pcap captures carry no measurement metadata; assume an OC-3 link
		// with 5-second intervals covering the whole capture.
		meta := trace.Meta{
			Name:            o.args[0],
			LinkBytesPerSec: 155.52e6 / 8,
			Interval:        5 * time.Second,
			Intervals:       12,
		}
		if o.intervals > 0 {
			meta.Intervals = o.intervals
		}
		r, err := trace.NewPcapSource(f, meta)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return r, f.Close, nil
	}
	r, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f.Close, nil
}

func run(o options) error {
	def := flow.DefinitionByName(o.defName)
	if def == nil {
		return fmt.Errorf("unknown flow definition %q", o.defName)
	}
	if o.hash != "" && o.algName != "msf" {
		return fmt.Errorf("-hash selects the stage hash family and only applies to -alg msf")
	}
	src, closeSrc, err := openSource(o)
	if err != nil {
		return err
	}
	defer closeSrc()
	meta := src.Meta()
	thBytes := uint64(o.threshold * meta.Capacity())
	if thBytes < 1 {
		thBytes = 1
	}

	mkAlgFor := func(algName string, algSeed int64) (core.Algorithm, *adapt.Adaptor, error) {
		var (
			alg     core.Algorithm
			adaptor *adapt.Adaptor
			err     error
		)
		switch algName {
		case "sh":
			alg, err = sampleandhold.New(sampleandhold.Config{
				Entries:      o.entries,
				Threshold:    thBytes,
				Oversampling: o.oversamp,
				Preserve:     true,
				EarlyRemoval: 0.15,
				Seed:         algSeed,
			})
			if o.adaptive {
				adaptor = adapt.New(adapt.SampleAndHoldDefaults())
			}
		case "msf":
			alg, err = multistage.New(multistage.Config{
				Stages:       o.stages,
				Buckets:      o.buckets,
				Entries:      o.entries,
				Threshold:    thBytes,
				Conservative: true,
				Shield:       true,
				Preserve:     true,
				Hash:         o.hash,
				Seed:         algSeed,
			})
			if o.adaptive {
				adaptor = adapt.New(adapt.MultistageDefaults())
			}
		case "netflow":
			alg, err = netflow.New(netflow.Config{SamplingRate: o.rate})
		default:
			err = fmt.Errorf("unknown algorithm %q (want sh, msf, netflow)", algName)
		}
		return alg, adaptor, err
	}
	mkAlg := func(algSeed int64) (core.Algorithm, *adapt.Adaptor, error) {
		return mkAlgFor(o.algName, algSeed)
	}
	if o.ab != "" {
		if o.adaptive {
			return fmt.Errorf("-ab compares fixed configurations; -adapt is not supported")
		}
		if o.export != "" || o.exportTCP != "" {
			return fmt.Errorf("-ab does not export (which side would be authoritative?)")
		}
		return runAB(o, mkAlgFor, def, src, thBytes)
	}
	if o.shards > 1 {
		return runSharded(o, mkAlg, def, src, meta, thBytes)
	}
	alg, adaptor, err := mkAlg(o.seed)
	if err != nil {
		return err
	}

	fmt.Printf("device: %s, flows by %s, threshold %d bytes (%.4f%% of capacity), %d entries\n",
		alg.Name(), def.Name(), thBytes, o.threshold*100, alg.Capacity())

	sink, err := newExportSink(o, def, meta)
	if err != nil {
		return err
	}
	defer sink.close()

	dev := device.New(alg, def, adaptor)
	dev.KeepReports = false
	dev.SetExportTelemetry(sink.telemetry())
	dev.OnReport = func(r device.IntervalReport) {
		fmt.Printf("interval %d: threshold %d bytes, %d/%d entries used, %d flows reported\n",
			r.Interval, r.Threshold, r.EntriesUsed, alg.Capacity(), len(r.Estimates))
		printTop(r.Estimates, o.top, def, true)
		sink.send(r)
		if o.reportPause > 0 {
			time.Sleep(o.reportPause)
		}
	}
	if o.listen != "" {
		debugserver.Publish("hhdevice", func() any { return dev.Stats() })
		debugserver.RegisterHealth("device", func() (telemetry.HealthStatus, string) {
			return dev.Stats().Health()
		})
		sink.registerHealth()
		addr, err := debugserver.Serve(o.listen)
		if err != nil {
			return err
		}
		fmt.Printf("debug: serving /debug/vars, /debug/pprof and /healthz on http://%s\n", addr)
	}
	// SIGINT/SIGTERM ends the replay at the next batch boundary; the export
	// spool is then drained and the journal fsynced before exit, so a
	// graceful stop loses nothing and a durable spool carries the backlog
	// into the next start.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	interrupted := func() bool {
		select {
		case <-sig:
			return true
		default:
			return false
		}
	}
	n, err := trace.Replay(src, dev, trace.WithStop(interrupted))
	stopped := errors.Is(err, trace.ErrStopped)
	if err != nil && !stopped {
		return err
	}
	if stopped {
		fmt.Printf("\ninterrupted after %d packets: draining export spool\n", n)
	}
	mem := alg.Mem()
	fmt.Printf("processed %d packets, %.2f memory references/packet\n", n, mem.PerPacket())
	sink.close()
	sink.summary()
	return nil
}

// printTop prints the first n estimates of a report, the shared half of
// both run paths' per-interval output.
func printTop(ests []core.Estimate, n int, def flow.Definition, markExact bool) {
	if n > len(ests) {
		n = len(ests)
	}
	for _, e := range ests[:n] {
		mark := ""
		if markExact && e.Exact {
			mark = " (exact)"
		}
		fmt.Printf("  %12d bytes%s  %s\n", e.Bytes, mark, def.Format(e.Key))
	}
}

// exportSink is the one export path shared by the single-lane and sharded
// runs: it encodes each interval report as NetFlow v5 and ships it over
// the configured transport — fire-and-forget UDP (the paper's baseline) or
// the spooled at-least-once TCP transport — counting outcomes in telemetry
// rather than only printing to stderr. A nil sink (no export requested)
// no-ops everywhere.
type exportSink struct {
	enc      *netflow.Exporter
	udp      *netflow.UDPExporter
	tcp      *reliable.Exporter
	tel      *telemetry.Export
	interval time.Duration
	addr     string
	spoolDir string
	closed   bool

	// skip is the number of leading interval reports a previous process
	// life already committed to the journal; replaying the same trace, the
	// sink drops those (their frames are either already acked or sitting in
	// the recovered backlog) so a restart cannot double-export.
	skip      uint64
	reports   uint64
	unflushed int
}

// newExportSink builds the sink for o, or nil when no export is requested.
func newExportSink(o options, def flow.Definition, meta trace.Meta) (*exportSink, error) {
	if o.export == "" && o.exportTCP == "" {
		return nil, nil
	}
	if o.export != "" && o.exportTCP != "" {
		return nil, fmt.Errorf("-export and -export-tcp are mutually exclusive")
	}
	s := &exportSink{
		enc:      netflow.NewExporter(def),
		tel:      new(telemetry.Export),
		interval: meta.Interval,
	}
	if o.export != "" {
		udp, err := netflow.DialUDPExporter(o.export, s.enc)
		if err != nil {
			return nil, err
		}
		s.udp, s.addr = udp, o.export
		return s, nil
	}
	id := o.exportID
	if id == 0 {
		// The ID only has to distinguish concurrent exporters at one
		// collector; wall-clock nanoseconds (forced odd, hence non-zero) do.
		id = uint64(time.Now().UnixNano()) | 1
	}
	cfg := reliable.ExporterConfig{
		Addr:              o.exportTCP,
		ExporterID:        id,
		SpoolFrames:       o.spool,
		Seed:              o.seed,
		DrainTimeout:      o.drainWait,
		SpoolDir:          o.spoolDir,
		HeartbeatInterval: o.heartbeat,
		PauseTimeout:      o.pauseWait,
		SpoolHighWater:    o.highWater,
	}
	if o.spoolDir != "" {
		pol, err := reliable.FsyncPolicyByName(o.fsyncName)
		if err != nil {
			return nil, err
		}
		cfg.Fsync = pol
		if o.exportFault != "" {
			sched, err := faultinject.ParseWriterSchedule(o.exportFault)
			if err != nil {
				return nil, err
			}
			cfg.SpoolWrap = func(f reliable.SpoolFile) reliable.SpoolFile {
				return faultinject.NewWriter(f, sched)
			}
		}
	}
	tcp, err := reliable.NewExporter(cfg, s.tel)
	if err != nil {
		return nil, err
	}
	s.tcp, s.addr, s.spoolDir = tcp, o.exportTCP, o.spoolDir
	if rec := tcp.Recovered(); o.spoolDir != "" && (rec.Frames > 0 || rec.LastReport > 0) {
		s.skip = rec.LastReport
		fmt.Printf("export: recovered %d journaled frames (%d torn records truncated, %d discarded), resuming after report %d\n",
			rec.Frames, rec.TornRecords, rec.Discarded, rec.LastReport)
	}
	return s, nil
}

// telemetry returns the sink's counters (nil for a nil sink), for attaching
// to the device or pipeline snapshot.
func (s *exportSink) telemetry() *telemetry.Export {
	if s == nil {
		return nil
	}
	return s.tel
}

// overloaded reports export-spool backpressure — the reliable spool above
// its high-water mark. A nil sink or a fire-and-forget UDP sink is never
// overloaded.
func (s *exportSink) overloaded() bool {
	return s != nil && s.tcp != nil && s.tcp.Overloaded()
}

// send encodes and ships one interval report. Failures are counted in
// telemetry (and echoed to stderr for the interactive case); the run
// continues.
func (s *exportSink) send(r core.IntervalReport) {
	if s == nil {
		return
	}
	uptime := time.Duration(r.Interval+1) * s.interval
	if s.tcp != nil {
		// Replays are deterministic from the start of the trace, so interval
		// reports a previous life journaled (committed) are skipped rather
		// than re-enqueued under fresh sequence numbers.
		if s.reports++; s.reports <= s.skip {
			return
		}
		s.tcp.Enqueue(s.enc.Export(r.Estimates, uptime))
		return
	}
	pkts := s.enc.Export(r.Estimates, uptime)
	var bytes uint64
	for _, p := range pkts {
		bytes += uint64(len(p))
	}
	s.tel.ObserveReport(len(pkts), bytes)
	if err := s.udp.Send(pkts); err != nil {
		s.tel.ObserveSendError()
		s.tel.ObserveFramesDropped(uint64(len(pkts)))
		s.tel.ObserveReportDropped()
		fmt.Fprintf(os.Stderr, "export: %v\n", err)
		return
	}
	s.tel.ObserveSent(uint64(len(pkts)))
}

// close tears the transport down; the reliable path drains its spool first.
// Idempotent, so it can both be deferred and called before summary.
func (s *exportSink) close() {
	if s == nil || s.closed {
		return
	}
	s.closed = true
	var err error
	if s.tcp != nil {
		err = s.tcp.Close()
		s.unflushed = s.tcp.Backlog()
	} else {
		err = s.udp.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "export: %v\n", err)
	}
}

// summary prints the export volume and reliability counters after a run.
func (s *exportSink) summary() {
	if s == nil {
		return
	}
	st := s.tel.Snapshot()
	fmt.Printf("exported %d v5 packets, %d bytes to %s\n", s.enc.PacketsSent, s.enc.BytesSent, s.addr)
	if s.tcp != nil {
		fmt.Printf("export: %d acked, %d redelivered, %d reconnects, %d frames dropped (spool high-water %d)\n",
			st.Acked, st.Redelivered, st.Reconnects, st.FramesDropped, st.SpoolHighWater)
		if s.spoolDir != "" {
			ds := s.tcp.Durability().Snapshot()
			fmt.Printf("journal: %d appends (%d bytes), %d fsyncs, %d rotations, %d truncations, %d errors\n",
				ds.Appends, ds.AppendBytes, ds.Fsyncs, ds.Rotations, ds.Truncations, ds.JournalErrors)
			fmt.Printf("drain: %d frames unflushed at exit (journaled in %s; redelivered next start)\n",
				s.unflushed, s.spoolDir)
		} else if s.unflushed > 0 {
			fmt.Printf("drain: %d frames unflushed at exit (memory spool; lost)\n", s.unflushed)
		}
	} else if st.ExportErrors > 0 {
		fmt.Printf("export: %d send errors, %d reports dropped\n", st.ExportErrors, st.ReportsDropped)
	}
}

// registerHealth exposes the export path on /healthz next to the device.
func (s *exportSink) registerHealth() {
	if s == nil {
		return
	}
	debugserver.RegisterHealth("export", func() (telemetry.HealthStatus, string) {
		return s.tel.Snapshot().Health()
	})
	if s.tcp != nil && s.spoolDir != "" {
		debugserver.Publish("export_durability", func() any {
			return struct {
				Recovery reliable.RecoveryInfo     `json:"recovery"`
				Journal  telemetry.DurableSnapshot `json:"journal"`
			}{s.tcp.Recovered(), s.tcp.Durability().Snapshot()}
		})
		debugserver.RegisterHealth("export-journal", func() (telemetry.HealthStatus, string) {
			return s.tcp.Durability().Snapshot().Health()
		})
	}
}

// runAB races the primary algorithm (side "a") against a second one (side
// "b") on the same packet stream through two pipelines, scoring their
// per-interval agreement as each interval closes — the quickest way to
// answer "would sample-and-hold have caught the same heavy hitters as the
// filter?" on a real trace.
func runAB(o options, mkAlgFor func(string, int64) (core.Algorithm, *adapt.Adaptor, error),
	def flow.Definition, src trace.Source, thBytes uint64) error {

	shards := o.shards
	if shards < 1 {
		shards = 1
	}
	mkCfg := func(algName string, seedBase int64) pipeline.Config {
		return pipeline.Config{
			Shards:          shards,
			QueueDepth:      1024,
			Overload:        o.overload,
			DegradeFraction: o.degrade,
			RestartOnPanic:  o.restart,
			NewAlgorithm: func(shard int) (core.Algorithm, error) {
				alg, _, err := mkAlgFor(algName, seedBase+int64(shard))
				return alg, err
			},
			Definition: def,
			Seed:       o.seed,
		}
	}
	ab, err := pipeline.NewAB(mkCfg(o.algName, o.seed+1), mkCfg(o.ab, o.seed+501), o.top)
	if err != nil {
		return err
	}
	defer ab.Close()

	fmt.Printf("A/B device: %s (a) vs %s (b), flows by %s, threshold %d bytes (%.4f%% of capacity), %d shard(s)\n",
		o.algName, o.ab, def.Name(), thBytes, o.threshold*100, shards)
	ab.OnCompare = func(r pipeline.CompareResult) {
		fmt.Printf("interval %d: a=%d flows, b=%d flows, %d common, top-%d overlap %.0f%%, avg rel diff %.2f%%\n",
			r.Interval, r.FlowsA, r.FlowsB, r.CommonFlows, r.K, 100*r.TopKOverlap, 100*r.AvgRelDiff)
	}
	n, err := trace.Replay(src, ab)
	if err != nil {
		return err
	}
	fmt.Printf("processed %d packets through both sides\n", n)
	return nil
}

// runSharded drives the trace through an RSS-style pipeline of independent
// per-shard algorithm instances (threshold adaptation is per shard and
// therefore disabled here; use a single lane for adaptive runs).
func runSharded(o options, mkAlg func(int64) (core.Algorithm, *adapt.Adaptor, error), def flow.Definition,
	src trace.Source, meta trace.Meta, thBytes uint64) error {

	pipe, err := pipeline.New(pipeline.Config{
		Shards:          o.shards,
		QueueDepth:      1024,
		Overload:        o.overload,
		DegradeFraction: o.degrade,
		RestartOnPanic:  o.restart,
		NewAlgorithm: func(shard int) (core.Algorithm, error) {
			alg, _, err := mkAlg(int64(shard) + 1)
			return alg, err
		},
		Definition: def,
	})
	if err != nil {
		return err
	}
	defer pipe.Close()

	sink, err := newExportSink(o, def, meta)
	if err != nil {
		return err
	}
	defer sink.close()
	pipe.SetExportTelemetry(sink.telemetry())
	// Export-path backpressure closes the loop from collector to packet
	// path: a spool above its high-water mark makes the Degrade policy thin
	// batches at the measurement input.
	pipe.SetPressure(sink.overloaded)
	if o.listen != "" {
		debugserver.Publish("hhdevice", func() any { return pipe.Stats() })
		debugserver.RegisterHealth("pipeline", pipe.Health)
		sink.registerHealth()
		addr, err := debugserver.Serve(o.listen)
		if err != nil {
			return err
		}
		fmt.Printf("debug: serving /debug/vars, /debug/pprof and /healthz on http://%s\n", addr)
	}
	fmt.Printf("sharded device: %d lanes, flows by %s, threshold %d bytes (%.4f%% of capacity), overload %s\n",
		o.shards, def.Name(), thBytes, o.threshold*100, o.overload)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	n, err := trace.Replay(src, pipe, trace.WithStop(func() bool {
		select {
		case <-sig:
			return true
		default:
			return false
		}
	}))
	if errors.Is(err, trace.ErrStopped) {
		fmt.Printf("\ninterrupted after %d packets: reporting completed intervals, draining export spool\n", n)
	} else if err != nil {
		return err
	}
	shardCounts := pipe.ShardCounts()
	for i, r := range pipe.Reports() {
		fmt.Printf("interval %d: %d flows reported (per shard: %v)\n", r.Interval, len(r.Estimates), shardCounts[i])
		printTop(r.Estimates, o.top, def, false)
		sink.send(r)
	}
	fmt.Printf("processed %d packets across %d lanes\n", n, o.shards)
	if s := pipe.Stats(); s.ShedPackets() > 0 {
		fmt.Printf("overload: %d packets shed or degraded away (policy %s)\n", s.ShedPackets(), o.overload)
	}
	sink.close()
	sink.summary()
	return nil
}
