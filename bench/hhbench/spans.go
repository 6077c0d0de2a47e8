package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a layer boundary the benchmark times from its own code.
type spanKind uint8

const (
	spanPass     spanKind = iota // one Replay pass over the trace (trace layer)
	spanBatch                    // consumer PacketBatch (device or stagegraph)
	spanInterval                 // consumer EndInterval (kernel close, adaptation, merge, export hand-off)
	spanEncode                   // netflow v5 encode of one report
	spanEnqueue                  // reliable.Exporter.Enqueue of one report
	spanDecode                   // collector-side v5 decode of one frame
	spanApply                    // collector aggregation of one frame
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"trace.replay", "consumer.batch", "consumer.end_interval",
	"netflow.encode", "reliable.enqueue", "netflow.decode", "collector.apply",
}

// span is one timed call at a layer boundary; parent links a batch or an
// interval close to its pass (0 = none). Times are nanoseconds since the
// tracer's epoch, so a span holds no pointer and costs 32 bytes.
type span struct {
	start, end int64
	id, parent int32
	pkts       int32
	kind       spanKind
}

// tracer keeps spans in a preallocated slice and per-kind totals. Only the
// first cap(spans) spans are kept for the trace file; totals cover all of
// them. It is used from one goroutine at a time.
type tracer struct {
	epoch  time.Time
	spans  []span
	total  [numSpanKinds]time.Duration
	count  [numSpanKinds]int
	pkts   [numSpanKinds]int
	nextID int32
}

// spanTotals is a copy of a tracer's running totals, for per-pass
// differences.
type spanTotals struct {
	total [numSpanKinds]time.Duration
	pkts  [numSpanKinds]int
}

func (t *tracer) totals() spanTotals { return spanTotals{t.total, t.pkts} }

// maxKeptSpans bounds the trace file (~100 bytes of JSON per span).
const maxKeptSpans = 1 << 16

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, maxKeptSpans)} }

func (t *tracer) newID() int32 {
	t.nextID++
	return t.nextID
}

func (t *tracer) record(k spanKind, id, parent int32, start, end time.Time, pkts int) {
	t.total[k] += end.Sub(start)
	t.count[k]++
	t.pkts[k] += pkts
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{
			start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
			id: id, parent: parent, pkts: int32(pkts), kind: k,
		})
	}
}

// chromeEvent is one Chrome trace-event "complete" event; the file opens in
// Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the kept spans as Chrome trace-event JSON into dir and
// returns the file's path. Collector-side spans go on their own track.
func (t *tracer) writeChrome(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		tid := 1
		if s.kind == spanDecode || s.kind == spanApply {
			tid = 2
		}
		events = append(events, chromeEvent{
			Name: spanNames[s.kind], Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "pkts": s.pkts},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ns"})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
