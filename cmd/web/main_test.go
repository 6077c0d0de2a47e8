package main

import (
	"bufio"
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/pipeline"
	"repro/internal/pubsub"
)

func testOptions() options {
	return options{
		algs: "msf", preset: "MAG", scale: 0.02, intervals: 2,
		tick: time.Millisecond, threshold: 0.001,
		entries: 256, stages: 2, buckets: 128, shards: 1, top: 5, seed: 1,
	}
}

// TestDashboardPublishes drives one pipeline and an A/B pair: every
// interval must publish one report and one telemetry event per pipeline,
// tagged with its node name, and with two sides one comparison per
// interval — all on the bus by the time EndInterval returns.
func TestDashboardPublishes(t *testing.T) {
	const intervals = 3
	for _, tc := range []struct {
		name  string
		algs  []string
		nodes []string
	}{
		{"single", []string{"msf"}, []string{"measure"}},
		{"ab", []string{"msf", "sh"}, []string{"a", "b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus, err := pubsub.New(pubsub.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sub := bus.Subscribe(0)
			m, err := startMeasurement(testOptions(), tc.algs, 1000, bus)
			if err != nil {
				t.Fatal(err)
			}
			pkts := []flow.Packet{{Size: 5000, SrcIP: 1, DstIP: 2, Proto: 6}, {Size: 700, SrcIP: 3, DstIP: 2, Proto: 17}}
			for iv := 0; iv < intervals; iv++ {
				m.PacketBatch(pkts)
				m.EndInterval(iv)
			}
			m.Close()
			bus.Close()
			counts := map[string]int{}
			for e := range sub.C {
				switch p := e.Payload.(type) {
				case reportMsg:
					counts[e.Topic+" "+p.Node]++
					if len(p.Report.Estimates) == 0 {
						t.Errorf("empty report from %s", p.Node)
					}
				case event:
					counts[e.Topic+" "+p.Node]++
					if cmp, ok := p.Payload.(pipeline.CompareResult); ok && cmp.FlowsA == 0 {
						t.Errorf("comparison of an empty report: %+v", cmp)
					}
				default:
					t.Errorf("topic %s carries %T", e.Topic, e.Payload)
				}
			}
			want := map[string]int{}
			for _, node := range tc.nodes {
				want["reports "+node] = intervals
				want["events/telemetry "+node] = intervals
			}
			if len(tc.nodes) == 2 {
				want["events/compare "] = intervals
			}
			if !reflect.DeepEqual(counts, want) {
				t.Errorf("published %v, want %v", counts, want)
			}
		})
	}
}

// TestStartMeasurementUnknownAlg: a bad algorithm name — even as the second
// side — fails up front, not at first packet.
func TestStartMeasurementUnknownAlg(t *testing.T) {
	bus, err := pubsub.New(pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		algs []string
	}{
		{"single", []string{"bogus"}},
		{"second_side", []string{"msf", "bogus"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := startMeasurement(testOptions(), tc.algs, 1000, bus); err == nil || !strings.Contains(err.Error(), "bogus") {
				t.Errorf("%v: err = %v, want unknown algorithm", tc.algs, err)
			}
		})
	}
}

// TestRenderPayloadTrimsReports: a report with many estimates streams as a
// top-K view; non-report payloads pass through untouched.
func TestRenderPayloadTrimsReports(t *testing.T) {
	ests := make([]core.Estimate, 50)
	for i := range ests {
		ests[i] = core.Estimate{Key: flow.Key{Lo: uint64(i)}, Bytes: uint64(1000 - i)}
	}
	e := pubsub.Event{Topic: "reports", Payload: reportMsg{
		Node:   "measure",
		Report: core.IntervalReport{Interval: 3, Estimates: ests, EntriesUsed: 50, Threshold: 77},
	}}
	v, ok := renderPayload(e, flow.FiveTuple{}, 5).(reportView)
	if !ok {
		t.Fatalf("render type %T", renderPayload(e, flow.FiveTuple{}, 5))
	}
	if v.Node != "measure" || v.Interval != 3 || v.Flows != 50 || v.Threshold != 77 {
		t.Errorf("view header %+v", v)
	}
	if len(v.Top) != 5 || v.Top[0].Bytes != 1000 {
		t.Errorf("top-K %+v", v.Top)
	}

	other := pubsub.Event{Topic: "events/telemetry", Payload: 42}
	if got := renderPayload(other, flow.FiveTuple{}, 5); got != 42 {
		t.Errorf("non-report payload rewritten: %v", got)
	}
}

// TestServeEventsStreams: the SSE handler forwards bus events in wire
// format and terminates when the client goes away.
func TestServeEventsStreams(t *testing.T) {
	bus, err := pubsub.New(pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serveEvents(bus, flow.FiveTuple{}, 5))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := httptest.NewRequest("GET", srv.URL, nil).WithContext(ctx)
	req.RequestURI = ""
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// The subscription is registered inside the handler goroutine; publish
	// until one lands rather than racing a single publish against it.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				bus.Publish("events/compare", event{Kind: "compare"})
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	var ev, data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			ev = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ev != "compare" {
		t.Errorf("event name %q, want compare", ev)
	}
	if !strings.Contains(data, `"seq"`) || !strings.Contains(data, `"payload"`) {
		t.Errorf("data frame %q missing envelope", data)
	}
}
