package traffic

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestPublicAPIEndToEnd exercises the whole facade the way the quickstart
// example does: generate a trace, run both algorithms as devices, compare
// against the oracle, and bill the result.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg, err := Preset("COS")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.05).WithIntervals(3)
	src, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := cfg.Capacity()

	msf, err := NewMultistageFilter(MultistageConfig{
		Stages:       3,
		Buckets:      512,
		Entries:      256,
		Threshold:    uint64(capacity * 0.001),
		Conservative: true,
		Shield:       true,
		Preserve:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(msf, FiveTuple, NewAdaptor(MultistageAdaptation()))
	n, err := Replay(src, dev)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no packets replayed")
	}
	reports := dev.Reports()
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	if len(reports[0].Estimates) == 0 {
		t.Fatal("no heavy hitters reported")
	}

	// Billing on the last interval.
	bill, err := BillInterval(2, reports[2].Estimates, capacity, AccountingParams{
		Z:               0.001,
		PerByte:         1e-9,
		FlatPerInterval: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bill.Total() <= 0.25 {
		t.Error("no usage charges on a trace with heavy hitters")
	}
}

func TestPublicAPISampleAndHoldAndBaselines(t *testing.T) {
	mk := func() []Packet {
		var pkts []Packet
		for i := 0; i < 200; i++ {
			pkts = append(pkts, Packet{
				Time: time.Duration(i) * time.Millisecond, Size: 1000,
				SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: 6,
			})
		}
		return pkts
	}
	meta := TraceMeta{Name: "t", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: 1}

	algs := []struct {
		name string
		mk   func() (Algorithm, error)
	}{
		{"sample-and-hold", func() (Algorithm, error) {
			return NewSampleAndHold(SampleAndHoldConfig{Entries: 64, Threshold: 10000, Oversampling: 20, Seed: 1})
		}},
		{"sampled-netflow", func() (Algorithm, error) {
			return NewSampledNetFlow(NetFlowConfig{SamplingRate: 4})
		}},
	}
	for _, a := range algs {
		alg, err := a.mk()
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if alg.Name() != a.name {
			t.Errorf("Name = %q, want %q", alg.Name(), a.name)
		}
		dev := NewDevice(alg, FiveTuple, nil)
		if _, err := Replay(NewSliceSource(meta, mk()), dev); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		reports := dev.Reports()
		if len(reports) != 1 || len(reports[0].Estimates) != 1 {
			t.Fatalf("%s: reports = %+v", a.name, reports)
		}
		// Both should land near the 200 kB truth (the elephant is the
		// only flow; S&H and NetFlow sample it early).
		got := reports[0].Estimates[0].Bytes
		if got < 100000 || got > 400000 {
			t.Errorf("%s: estimate %d far from 200000", a.name, got)
		}
	}
}

func TestPublicAPITraceFormatRoundTrip(t *testing.T) {
	cfg, err := Preset("COS")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.05).WithIntervals(1)
	src, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := trace.WriteAll(&buf, src)
	if err != nil || n == 0 {
		t.Fatalf("WriteAll: n=%d err=%v", n, err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	oracle := NewExactCounter(FiveTuple)
	_, err = Replay(r, struct {
		Consumer
	}{consumerFuncs{
		onPacket: func(p *Packet) { oracle.Packet(p); count++ },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("read %d packets, wrote %d", count, n)
	}
	if oracle.Flows() == 0 {
		t.Error("oracle saw no flows")
	}
}

// consumerFuncs is a local Consumer helper for the round-trip test.
type consumerFuncs struct {
	onPacket func(p *Packet)
}

func (c consumerFuncs) Packet(p *Packet)  { c.onPacket(p) }
func (c consumerFuncs) EndInterval(i int) {}
