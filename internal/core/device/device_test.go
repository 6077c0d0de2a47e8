package device

import (
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/core/multistage"
	"repro/internal/core/sampleandhold"
	"repro/internal/flow"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func testTrace() (*trace.SliceSource, flow.Key, flow.Key) {
	meta := trace.Meta{
		Name:            "t",
		LinkBytesPerSec: 1e6,
		Interval:        time.Second,
		Intervals:       3,
	}
	var pkts []flow.Packet
	mk := func(at time.Duration, src uint32, size uint32) flow.Packet {
		return flow.Packet{Time: at, Size: size, SrcIP: src, DstIP: 99, DstPort: 80, Proto: 6}
	}
	// Flow 1 is an elephant present in all intervals; flow 2 is a mouse.
	for iv := 0; iv < 3; iv++ {
		base := time.Duration(iv) * time.Second
		for i := 0; i < 100; i++ {
			pkts = append(pkts, mk(base+time.Duration(i)*time.Millisecond, 1, 1000))
		}
		pkts = append(pkts, mk(base+500*time.Millisecond, 2, 40))
	}
	k1 := flow.FiveTuple{}.Key(&pkts[0])
	p2 := mk(0, 2, 40)
	k2 := flow.FiveTuple{}.Key(&p2)
	return trace.NewSliceSource(meta, pkts), k1, k2
}

func TestDeviceWithSampleAndHold(t *testing.T) {
	src, k1, _ := testTrace()
	alg, err := sampleandhold.New(sampleandhold.Config{
		Entries:      100,
		Threshold:    10000,
		Oversampling: 20,
		Preserve:     true,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := New(alg, flow.FiveTuple{}, nil)
	if _, err := trace.Replay(src, d); err != nil {
		t.Fatal(err)
	}
	reports := d.Reports()
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	// The elephant sends 100 kB/interval with p = 20/10000: it must be
	// identified in every interval, and exactly from interval 2 on.
	for i, r := range reports {
		got, ok := r.Estimate(k1)
		if !ok {
			t.Fatalf("interval %d: elephant not identified", i)
		}
		if i > 0 && got != 100000 {
			t.Errorf("interval %d: estimate %d, want exact 100000", i, got)
		}
	}
}

func TestDeviceWithMultistageFilter(t *testing.T) {
	src, k1, k2 := testTrace()
	alg, err := multistage.New(multistage.Config{
		Stages:       2,
		Buckets:      512,
		Entries:      100,
		Threshold:    50000,
		Conservative: true,
		Shield:       true,
		Preserve:     true,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := New(alg, flow.FiveTuple{}, nil)
	if _, err := trace.Replay(src, d); err != nil {
		t.Fatal(err)
	}
	for i, r := range d.Reports() {
		if _, ok := r.Estimate(k1); !ok {
			t.Fatalf("interval %d: elephant missed (no false negatives!)", i)
		}
		if _, ok := r.Estimate(k2); ok {
			t.Errorf("interval %d: 40-byte mouse identified", i)
		}
	}
}

func TestDeviceAdaptationAdjustsThreshold(t *testing.T) {
	src, _, _ := testTrace()
	alg, err := sampleandhold.New(sampleandhold.Config{
		Entries:      1000,
		Threshold:    1 << 30, // absurdly high: nothing sampled
		Oversampling: 4,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := New(alg, flow.FiveTuple{}, adapt.New(adapt.SampleAndHoldDefaults()))
	if _, err := trace.Replay(src, d); err != nil {
		t.Fatal(err)
	}
	reports := d.Reports()
	// Empty memory must drive the threshold down interval over interval.
	if reports[len(reports)-1].Threshold >= reports[0].Threshold {
		t.Errorf("threshold did not adapt down: %d -> %d",
			reports[0].Threshold, reports[len(reports)-1].Threshold)
	}
}

func TestDeviceOnReportCallback(t *testing.T) {
	src, _, _ := testTrace()
	alg, err := sampleandhold.New(sampleandhold.Config{
		Entries: 10, Threshold: 1000, Oversampling: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := New(alg, flow.FiveTuple{}, nil)
	d.KeepReports = false
	var got []int
	d.OnReport = func(r IntervalReport) { got = append(got, r.Interval) }
	if _, err := trace.Replay(src, d); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("callback intervals = %v", got)
	}
	if d.Reports() != nil {
		t.Error("KeepReports=false still accumulated reports")
	}
}

func TestIntervalReportEstimate(t *testing.T) {
	r := IntervalReport{Estimates: []core.Estimate{{Key: flow.Key{Lo: 1}, Bytes: 42}}}
	if got, ok := r.Estimate(flow.Key{Lo: 1}); !ok || got != 42 {
		t.Errorf("Estimate = %d,%v", got, ok)
	}
	if _, ok := r.Estimate(flow.Key{Lo: 2}); ok {
		t.Error("report claimed to know an absent flow")
	}
}

func TestDeviceAccessors(t *testing.T) {
	alg, err := sampleandhold.New(sampleandhold.Config{Entries: 10, Threshold: 100, Oversampling: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := New(alg, flow.DstIP{}, nil)
	if d.Algorithm() != alg {
		t.Error("Algorithm accessor wrong")
	}
	if d.Definition().Name() != "dstIP" {
		t.Error("Definition accessor wrong")
	}
}

// TestIntervalReportEstimateIndexed: repeated lookups go through the lazily
// built key index and agree with a linear scan, including after many calls
// and for absent keys.
func TestIntervalReportEstimateIndexed(t *testing.T) {
	r := IntervalReport{}
	for i := 1; i <= 100; i++ {
		r.Estimates = append(r.Estimates, core.Estimate{Key: flow.Key{Lo: uint64(i)}, Bytes: uint64(i * 10)})
	}
	for round := 0; round < 3; round++ {
		for i := 1; i <= 100; i++ {
			if got, ok := r.Estimate(flow.Key{Lo: uint64(i)}); !ok || got != uint64(i*10) {
				t.Fatalf("round %d key %d: Estimate = %d,%v", round, i, got, ok)
			}
		}
		if _, ok := r.Estimate(flow.Key{Lo: 999}); ok {
			t.Fatal("report claimed to know an absent flow")
		}
	}
}

// noBatch hides an algorithm's ProcessBatch method, forcing Device and
// core.ProcessBatch onto the per-packet fallback shim.
type noBatch struct{ core.Algorithm }

// TestDevicePacketBatchMatchesPerPacket: the device's batched entry point
// produces the same reports as per-packet delivery, both for an algorithm
// with a batched kernel (multistage) and for one without (noBatch forces the
// per-packet fallback shim).
func TestDevicePacketBatchMatchesPerPacket(t *testing.T) {
	for _, shim := range []bool{false, true} {
		t.Run(map[bool]string{false: "batched-kernel", true: "fallback-shim"}[shim], func(t *testing.T) {
			testDevicePacketBatch(t, shim)
		})
	}
}

func testDevicePacketBatch(t *testing.T, shim bool) {
	mkAlg := func() core.Algorithm {
		alg, err := multistage.New(multistage.Config{
			Stages: 3, Buckets: 64, Entries: 32, Threshold: 5000,
			Conservative: true, Shield: true, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if shim {
			return noBatch{alg}
		}
		return alg
	}
	src, _, _ := testTrace()
	var pkts []flow.Packet
	for {
		p, err := src.Next()
		if err != nil {
			break
		}
		pkts = append(pkts, p)
	}
	perPacket := New(mkAlg(), flow.FiveTuple{}, nil)
	for i := range pkts {
		perPacket.Packet(&pkts[i])
	}
	perPacket.EndInterval(0)

	batched := New(mkAlg(), flow.FiveTuple{}, nil)
	batched.PacketBatch(pkts[:len(pkts)/2])
	batched.PacketBatch(pkts[len(pkts)/2:])
	batched.EndInterval(0)

	a, b := perPacket.Reports()[0], batched.Reports()[0]
	if len(a.Estimates) != len(b.Estimates) {
		t.Fatalf("%d vs %d estimates", len(a.Estimates), len(b.Estimates))
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatalf("estimate %d: %+v vs %+v", i, a.Estimates[i], b.Estimates[i])
		}
	}
}

// newExactDevice returns a device over sample and hold with byte sampling
// probability 1, so every packet is held and estimates are exact.
func newExactDevice(t *testing.T, entries int) *Device {
	t.Helper()
	alg, err := sampleandhold.New(sampleandhold.Config{
		Entries: entries, Threshold: 10, Oversampling: 10, Seed: 1, // p = 1
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(alg, flow.FiveTuple{}, nil)
}

// TestDeviceIntervalsSplitTraffic: each packet is counted in the interval it
// arrived in, and Stats counts the reports and packets.
func TestDeviceIntervalsSplitTraffic(t *testing.T) {
	d := newExactDevice(t, 64)
	p := flow.Packet{Size: 100, SrcIP: 1, DstIP: 2, Proto: 6}
	d.Packet(&p)
	d.Packet(&p)
	d.EndInterval(0)
	d.Packet(&p)
	d.EndInterval(1)
	reports := d.Reports()
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	for i, want := range []uint64{200, 100} {
		if reports[i].Interval != i || len(reports[i].Estimates) != 1 || reports[i].Estimates[0].Bytes != want {
			t.Errorf("interval %d report = %+v, want one flow of %d bytes", i, reports[i], want)
		}
	}
	s := d.Stats()
	if s.Reports != 2 || s.Algorithm.Packets != 3 || s.Algorithm.Bytes != 300 {
		t.Errorf("stats: reports %d packets %d bytes %d, want 2, 3, 300",
			s.Reports, s.Algorithm.Packets, s.Algorithm.Bytes)
	}
	if s.Definition != d.Definition().Name() {
		t.Errorf("stats definition = %q", s.Definition)
	}
}

// TestDeviceEmptyIntervalReport: an interval without packets still yields a
// numbered, empty report.
func TestDeviceEmptyIntervalReport(t *testing.T) {
	d := newExactDevice(t, 64)
	d.EndInterval(0)
	reports := d.Reports()
	if len(reports) != 1 || reports[0].Interval != 0 || len(reports[0].Estimates) != 0 {
		t.Fatalf("reports = %+v, want one empty report for interval 0", reports)
	}
	if got := d.Stats().Reports; got != 1 {
		t.Errorf("stats reports = %d, want 1", got)
	}
}

// TestDeviceStatsCountsUnkeptReports: with KeepReports off the device stores
// nothing, but Stats still counts every report produced.
func TestDeviceStatsCountsUnkeptReports(t *testing.T) {
	d := newExactDevice(t, 64)
	d.KeepReports = false
	p := flow.Packet{Size: 100, SrcIP: 1, DstIP: 2, Proto: 6}
	for iv := 0; iv < 3; iv++ {
		d.Packet(&p)
		d.EndInterval(iv)
	}
	if d.Reports() != nil {
		t.Error("KeepReports=false still accumulated reports")
	}
	if got := d.Stats().Reports; got != 3 {
		t.Errorf("stats reports = %d, want 3", got)
	}
}

// TestDeviceHealthDegradesOnRejection: a flow memory that refuses an entry
// grades the device degraded and names the rejection count.
func TestDeviceHealthDegradesOnRejection(t *testing.T) {
	d := newExactDevice(t, 1)
	if st, reason := d.Stats().Health(); st != telemetry.HealthOK {
		t.Fatalf("idle device graded %v (%q)", st, reason)
	}
	for src := uint32(1); src <= 2; src++ {
		p := flow.Packet{Size: 100, SrcIP: src, DstIP: 2, Proto: 6}
		d.Packet(&p)
	}
	st, reason := d.Stats().Health()
	if st != telemetry.HealthDegraded || reason != "flow memory rejected 1 entries" {
		t.Errorf("full device graded %v (%q), want degraded by 1 rejection", st, reason)
	}
}

// TestDeviceStatsDuringTraffic: Stats may be read from another goroutine
// while packets and interval boundaries are processed, and every byte lands
// in exactly one interval report.
func TestDeviceStatsDuringTraffic(t *testing.T) {
	d := newExactDevice(t, 64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = d.Stats()
			}
		}
	}()
	const intervals, perInterval = 4, 250
	for iv := 0; iv < intervals; iv++ {
		for i := 0; i < perInterval; i++ {
			p := flow.Packet{Size: 100, SrcIP: uint32(i % 4), DstIP: 2, Proto: 6}
			d.Packet(&p)
		}
		d.EndInterval(iv)
	}
	close(stop)
	<-done
	var total uint64
	for _, r := range d.Reports() {
		for _, e := range r.Estimates {
			total += e.Bytes
		}
	}
	if total != intervals*perInterval*100 {
		t.Errorf("accounted %d bytes, want %d", total, intervals*perInterval*100)
	}
	if got := d.Stats().Reports; got != intervals {
		t.Errorf("stats reports = %d, want %d", got, intervals)
	}
}
