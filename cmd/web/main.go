// Command web serves a live measurement dashboard: it drives a synthetic
// trace through a sharded pipeline (or an A/B pair of them) at wall-clock
// pace, publishes every interval report, telemetry snapshot and A/B
// comparison onto the event bus, and streams the bus to browsers over
// Server-Sent Events.
//
// Usage:
//
//	web -listen :8089                      # single msf device on the MAG preset
//	web -algs msf,sh -top 15               # A/B: multistage filter vs sample-and-hold
//	web -preset COS -scale 0.1 -tick 2s    # slower pace on a different trace
//
// Open http://localhost:8089/ in a browser; /events is the raw SSE feed,
// /stats.json every pipeline's snapshot plus the bus counters, and the
// usual /debug/vars, /debug/pprof and /healthz debug endpoints are served
// alongside.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/core/multistage"
	"repro/internal/core/sampleandhold"
	"repro/internal/debugserver"
	"repro/internal/flow"
	"repro/internal/pipeline"
	"repro/internal/pubsub"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// options collects the command-line configuration.
type options struct {
	listen    string
	algs      string
	preset    string
	scale     float64
	intervals int
	loop      bool
	tick      time.Duration
	threshold float64
	entries   int
	stages    int
	buckets   int
	shards    int
	top       int
	seed      int64
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", ":8089", "serve the dashboard on this address")
	flag.StringVar(&o.algs, "algs", "msf", "algorithm, or two comma-separated algorithms to race A/B: sh, msf")
	flag.StringVar(&o.preset, "preset", "MAG", "synthetic trace preset to replay")
	flag.Float64Var(&o.scale, "scale", 0.05, "scale factor for the preset")
	flag.IntVar(&o.intervals, "intervals", 6, "measurement intervals per replay pass")
	flag.BoolVar(&o.loop, "loop", true, "replay the trace again when it ends")
	flag.DurationVar(&o.tick, "tick", time.Second, "wall-clock pace of one measurement interval")
	flag.Float64Var(&o.threshold, "threshold", 0.001, "large-flow threshold as a fraction of link capacity")
	flag.IntVar(&o.entries, "entries", 1024, "flow memory entries")
	flag.IntVar(&o.stages, "stages", 4, "filter stages (msf)")
	flag.IntVar(&o.buckets, "buckets", 1024, "counters per stage (msf)")
	flag.IntVar(&o.shards, "shards", 1, "shards per measure stage")
	flag.IntVar(&o.top, "top", 10, "heavy hitters to stream per interval")
	flag.Int64Var(&o.seed, "seed", 1, "trace and algorithm seed")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "web:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	names := strings.Split(o.algs, ",")
	if len(names) < 1 || len(names) > 2 {
		return fmt.Errorf("-algs wants one algorithm or two comma-separated, got %q", o.algs)
	}

	cfg, err := trace.Preset(o.preset)
	if err != nil {
		return err
	}
	cfg.Seed = o.seed
	if o.scale != 1 {
		cfg = cfg.Scaled(o.scale)
	}
	if o.intervals > 0 {
		cfg = cfg.WithIntervals(o.intervals)
	}
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return err
	}
	src, err := trace.Collect(gen)
	if err != nil {
		return err
	}
	meta := src.Meta()
	thBytes := uint64(o.threshold * meta.Capacity())
	if thBytes < 1 {
		thBytes = 1
	}

	bus, err := pubsub.New(pubsub.Config{})
	if err != nil {
		return err
	}
	m, err := startMeasurement(o, names, thBytes, bus)
	if err != nil {
		return err
	}
	defer m.Close()

	def := flow.FiveTuple{}
	stats := func() any { return m.stats(bus) }
	http.HandleFunc("/", serveIndex)
	http.HandleFunc("/events", serveEvents(bus, def, o.top))
	http.HandleFunc("/stats.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(stats()) //nolint:errcheck // best-effort response
	})
	debugserver.Publish("web", stats)
	for name, p := range m.pipes {
		debugserver.RegisterHealth(name, p.Health)
	}
	addr, err := debugserver.Serve(o.listen)
	if err != nil {
		return err
	}
	fmt.Printf("web: %s on preset %s, threshold %d bytes, dashboard on http://%s/\n",
		strings.Join(names, " vs "), meta.Name, thBytes, addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go feed(m, src, meta, o, done)
	<-stop
	close(done)
	fmt.Println("\nweb: shutting down")
	return nil
}

// reportMsg is an interval report tagged with the pipeline that produced
// it: the payload of the bus's "reports" topic.
type reportMsg struct {
	// Node names the pipeline: "measure", or "a"/"b" in an A/B race.
	Node string `json:"node"`
	// Report is the merged interval report.
	Report core.IntervalReport `json:"report"`
}

// event is the payload of the bus's "events/<kind>" topics: a pipeline's
// telemetry snapshot or an A/B comparison.
type event struct {
	// Node names the emitting pipeline (empty for comparisons).
	Node string `json:"node"`
	// Kind tags the payload: "telemetry" or "compare".
	Kind string `json:"kind"`
	// Time is when the event was produced.
	Time time.Time `json:"time"`
	// Payload is a telemetry.PipelineSnapshot or a pipeline.CompareResult.
	Payload any `json:"payload"`
}

// consumer is what feed drives: a *pipeline.Pipeline or a *pipeline.AB.
type consumer interface {
	trace.BatchConsumer
	Close()
}

// measurement is what the dashboard feeds: one pipeline ("measure"), or an
// A/B pair ("a", "b") whose reports are compared as each interval closes.
type measurement struct {
	consumer
	// pipes maps each pipeline's node name to it.
	pipes map[string]*pipeline.Pipeline
}

// startMeasurement starts the pipelines behind the dashboard and hooks them
// to the bus: every interval report and telemetry snapshot, and each A/B
// comparison, is published from the producer goroutine as the interval
// closes. The bus never blocks a publisher (slow subscribers shed their
// oldest events), so observers cannot stall the measurement. Every
// algorithm name is checked before any lane starts.
func startMeasurement(o options, names []string, thBytes uint64, bus *pubsub.Bus) (*measurement, error) {
	var cfgs []pipeline.Config
	for i, name := range names {
		seed := o.seed + int64(i)
		newAlg, err := algFactory(o, name, thBytes, seed)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, pipeline.Config{
			Shards:         o.shards,
			QueueDepth:     256,
			NewAlgorithm:   newAlg,
			Definition:     flow.FiveTuple{},
			Seed:           seed,
			DiscardReports: true, // the bus is the only reader
		})
	}
	m := &measurement{pipes: map[string]*pipeline.Pipeline{}}
	if len(cfgs) == 1 {
		p, err := pipeline.New(cfgs[0])
		if err != nil {
			return nil, err
		}
		m.consumer, m.pipes["measure"] = p, p
	} else {
		ab, err := pipeline.NewAB(cfgs[0], cfgs[1], o.top)
		if err != nil {
			return nil, err
		}
		ab.OnCompare = func(r pipeline.CompareResult) {
			bus.Publish("events/compare", event{Kind: "compare", Time: time.Now(), Payload: r})
		}
		m.consumer, m.pipes["a"], m.pipes["b"] = ab, ab.A, ab.B
	}
	for name, p := range m.pipes {
		p.OnReport = func(r core.IntervalReport) {
			bus.Publish("reports", reportMsg{Node: name, Report: r})
			bus.Publish("events/telemetry", event{Node: name, Kind: "telemetry", Time: time.Now(), Payload: p.Stats()})
		}
	}
	return m, nil
}

// stats is the /stats.json document: every pipeline's snapshot plus the
// bus counters.
func (m *measurement) stats(bus *pubsub.Bus) any {
	measures := map[string]telemetry.PipelineSnapshot{}
	for name, p := range m.pipes {
		measures[name] = p.Stats()
	}
	return struct {
		Measures map[string]telemetry.PipelineSnapshot `json:"measures"`
		Bus      telemetry.BusSnapshot                 `json:"bus"`
	}{measures, bus.Stats()}
}

// algFactory returns the per-shard algorithm constructor for one named
// algorithm.
func algFactory(o options, name string, thBytes uint64, seed int64) (func(int) (core.Algorithm, error), error) {
	switch name {
	case "sh":
		return func(shard int) (core.Algorithm, error) {
			return sampleandhold.New(sampleandhold.Config{
				Entries:      o.entries,
				Threshold:    thBytes,
				Oversampling: 4,
				Preserve:     true,
				Seed:         seed + int64(shard),
			})
		}, nil
	case "msf":
		return func(shard int) (core.Algorithm, error) {
			return multistage.New(multistage.Config{
				Stages:       o.stages,
				Buckets:      o.buckets,
				Entries:      o.entries,
				Threshold:    thBytes,
				Conservative: true,
				Shield:       true,
				Preserve:     true,
				Seed:         seed + int64(shard),
			})
		}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want sh, msf)", name)
	}
}

// feed replays the collected trace through the measurement at wall-clock pace:
// each measurement interval's packets are delivered in batches, the
// interval is closed, and the feeder sleeps one tick. With -loop the trace
// restarts when it ends; the interval counter keeps increasing so every
// report stays unique.
func feed(m *measurement, src *trace.SliceSource, meta trace.Meta, o options, done <-chan struct{}) {
	const batch = 256
	// Partition packets by measurement interval once, up front.
	byInterval := make([][]flow.Packet, meta.Intervals)
	for {
		p, err := src.Next()
		if err != nil {
			break
		}
		iv := int(p.Time / meta.Interval)
		if iv >= meta.Intervals {
			iv = meta.Intervals - 1
		}
		byInterval[iv] = append(byInterval[iv], p)
	}
	interval := 0
	for {
		for _, pkts := range byInterval {
			for len(pkts) > 0 {
				n := batch
				if n > len(pkts) {
					n = len(pkts)
				}
				m.PacketBatch(pkts[:n])
				pkts = pkts[n:]
			}
			m.EndInterval(interval)
			interval++
			select {
			case <-done:
				return
			case <-time.After(o.tick):
			}
		}
		if !o.loop {
			return
		}
	}
}
