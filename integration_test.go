package traffic

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/leakybucket"
	"repro/internal/netflow"
	"repro/internal/sketch"
)

// TestFullSystemIntegration drives the entire system end to end through
// the public API: a calibrated synthetic trace flows through a sharded
// pipeline of multistage filters; the merged heavy-hitter reports are
// billed with threshold accounting and exported as NetFlow v5 over UDP to
// a collection station, whose records must reconcile with the bills.
func TestFullSystemIntegration(t *testing.T) {
	cfg, err := Preset("COS")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.05).WithIntervals(3)
	capacity := cfg.Capacity()
	threshold := uint64(0.001 * capacity)

	// Collection station.
	var mu sync.Mutex
	var collected uint64
	srv, addr, stop, err := netflow.ListenAndServe("127.0.0.1:0", func(_ net.Addr, p *netflow.V5Packet) {
		mu.Lock()
		for _, r := range p.Records {
			collected += uint64(r.Bytes)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	exporter, err := netflow.DialUDPExporter(addr.String(), netflow.NewExporter(DstIP))
	if err != nil {
		t.Fatal(err)
	}
	defer exporter.Close()

	// Sharded measurement pipeline: destination-IP flows across 3 lanes.
	pipe, err := NewPipeline(PipelineConfig{
		Shards:     3,
		QueueDepth: 512,
		NewAlgorithm: func(shard int) (Algorithm, error) {
			return NewMultistageFilter(MultistageConfig{
				Stages: 3, Buckets: 256, Entries: 256,
				Threshold:    threshold,
				Conservative: true, Shield: true, Preserve: true,
				Seed: int64(shard) + 1,
			})
		},
		Definition: DstIP,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	src, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Replay(src, pipe)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no packets replayed")
	}

	// Bill and export every interval.
	tariff := AccountingParams{Z: 0.001, PerByte: 1e-9, FlatPerInterval: 0.1}
	ledger := NewLedger()
	var billedBytes uint64
	for _, r := range pipe.Reports() {
		bill, err := BillInterval(r.Interval, r.Estimates, capacity, tariff)
		if err != nil {
			t.Fatal(err)
		}
		ledger.Add(bill)
		for _, c := range bill.Usage {
			billedBytes += c.Bytes
		}
		uptime := time.Duration(r.Interval+1) * cfg.Interval
		if err := exporter.Send(exporter.Export(r.Estimates, uptime)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ledger.Bills) != 3 || ledger.Revenue <= 3*tariff.FlatPerInterval {
		t.Fatalf("ledger: %d bills, revenue %g", len(ledger.Bills), ledger.Revenue)
	}

	// The collector must receive every exported record.
	var wantRecords uint64
	var exportedBytes uint64
	for _, r := range pipe.Reports() {
		wantRecords += uint64(len(r.Estimates))
		for _, e := range r.Estimates {
			exportedBytes += e.Bytes
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().Records >= wantRecords {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := srv.Stats()
	if st.Records != wantRecords || st.LostRecords != 0 {
		t.Fatalf("collector stats %+v, want %d records", st, wantRecords)
	}
	mu.Lock()
	defer mu.Unlock()
	if collected != exportedBytes {
		t.Errorf("collected %d bytes of records, exported %d", collected, exportedBytes)
	}
	// Billed traffic is a subset (flows above the tariff threshold).
	if billedBytes > exportedBytes {
		t.Errorf("billed %d > exported %d", billedBytes, exportedBytes)
	}
}

// TestPublicAPISketchesAndLeakyBucket covers the algorithms beyond the
// paper that sit behind no facade entry: the Count-Min and Space-Saving
// baselines and the leaky-bucket large-flow detector.
func TestPublicAPISketchesAndLeakyBucket(t *testing.T) {
	cm, err := sketch.NewCountMin(sketch.CountMinConfig{
		Rows: 3, Columns: 128, Entries: 32, Threshold: 5000, Conservative: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sketch.NewSpaceSaving(sketch.SpaceSavingConfig{Entries: 32})
	if err != nil {
		t.Fatal(err)
	}
	ss.SetThreshold(5000)
	for i := 0; i < 100; i++ {
		for _, alg := range []Algorithm{cm, ss} {
			alg.Process(FlowKey{Lo: 1}, 100)
			alg.Process(FlowKey{Lo: uint64(2 + i)}, 50)
		}
	}
	for _, alg := range []Algorithm{cm, ss} {
		found := false
		for _, e := range alg.EndInterval() {
			if e.Key == (FlowKey{Lo: 1}) && e.Bytes >= 10000 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missed the elephant", alg.Name())
		}
	}

	det, err := leakybucket.NewDetector(leakybucket.Config{
		Descriptor: leakybucket.Descriptor{Rate: 1000, Burst: 2000},
		Stages:     2,
		Buckets:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for i := 0; i < 50 && !flagged; i++ {
		flagged = det.Process(FlowKey{Lo: 7}, time.Duration(i)*10*time.Millisecond, 500)
	}
	if !flagged {
		t.Error("leaky bucket detector missed a 50 kB/s flow against a 1 kB/s descriptor")
	}
}
