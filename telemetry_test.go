package traffic

// Telemetry correctness: the counters exposed through Snapshot /
// Device.Stats / Pipeline.Stats must agree with ground truth (the replayed
// trace) and with each other — a sharded pipeline must account for exactly
// the same traffic as a single device processing the same packets. The
// concurrent-reader tests run under -race in CI, which checks the lock-free
// snapshot contract, not just the totals.

import (
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
)

func traceTotals(pkts []Packet) (packets, bytes uint64) {
	for i := range pkts {
		bytes += uint64(pkts[i].Size)
	}
	return uint64(len(pkts)), bytes
}

// TestDeviceStatsMatchTrace checks Device.Stats and core.Snapshot against
// ground truth from the replayed trace.
func TestDeviceStatsMatchTrace(t *testing.T) {
	meta, pkts, capacity := collectTrace(t, "COS", 0.02, 3)
	wantPackets, wantBytes := traceTotals(pkts)
	alg, err := NewSampleAndHold(SampleAndHoldConfig{
		Entries: 128, Threshold: uint64(0.0005 * capacity),
		Oversampling: 4, Preserve: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(alg, FiveTuple, NewAdaptor(adapt.SampleAndHoldDefaults()))
	if _, err := Replay(NewSliceSource(meta, pkts), dev); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.Definition != "5-tuple" {
		t.Errorf("definition: got %q, want %q", s.Definition, "5-tuple")
	}
	if s.Reports != len(dev.Reports()) || s.Reports != meta.Intervals {
		t.Errorf("reports: stats %d, Reports() %d, intervals %d", s.Reports, len(dev.Reports()), meta.Intervals)
	}
	a := s.Algorithm
	if a.Stale {
		t.Error("sample-and-hold snapshot marked stale; algorithm not instrumented")
	}
	if a.Packets != wantPackets || a.Bytes != wantBytes {
		t.Errorf("traffic: got %d pkts / %d bytes, trace has %d / %d", a.Packets, a.Bytes, wantPackets, wantBytes)
	}
	if a.Intervals != uint64(meta.Intervals) || len(a.ThresholdTrajectory) != meta.Intervals {
		t.Errorf("intervals: got %d closed, trajectory %d, want %d", a.Intervals, len(a.ThresholdTrajectory), meta.Intervals)
	}
	if a.Capacity != 128 {
		t.Errorf("capacity: got %d, want 128", a.Capacity)
	}
	if a.FilterPasses == 0 {
		t.Error("no filter passes recorded over a full trace")
	}
	if a.Mem.Accesses() == 0 || a.MemRefsPerPacket() <= 0 {
		t.Errorf("memory accounting empty: %+v", a.Mem)
	}
	// core.Snapshot reads the same live counters.
	if got := core.Snapshot(alg); got.Packets != a.Packets || got.FilterPasses != a.FilterPasses {
		t.Errorf("Snapshot(alg) = %d pkts / %d passes, Stats().Algorithm = %d / %d",
			got.Packets, got.FilterPasses, a.Packets, a.FilterPasses)
	}
}

// pollStats hammers fn from a goroutine until the returned stop function is
// called; under -race this verifies the snapshot is safe during traffic.
func pollStats(fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				fn()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// TestPipelineTelemetryMatchesDeviceSingleShard replays the same trace
// through a single device and through a 1-shard pipeline built with the
// identical algorithm config, and requires the pipeline's telemetry to be
// exactly the device's — sharding and lane batching must not change what is
// accounted. A concurrent Stats poller runs during the pipeline replay.
func TestPipelineTelemetryMatchesDeviceSingleShard(t *testing.T) {
	meta, pkts, capacity := collectTrace(t, "COS", 0.02, 3)
	cfg := SampleAndHoldConfig{
		Entries: 128, Threshold: uint64(0.0005 * capacity),
		Oversampling: 4, Preserve: true, Seed: 42,
	}

	alg, err := NewSampleAndHold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(alg, FiveTuple, nil)
	if _, err := Replay(NewSliceSource(meta, pkts), dev); err != nil {
		t.Fatal(err)
	}
	want := dev.Stats().Algorithm

	p, err := NewPipeline(PipelineConfig{
		Shards: 1, QueueDepth: 64, BatchSize: 64,
		NewAlgorithm: func(shard int) (Algorithm, error) { return NewSampleAndHold(cfg) },
		Definition:   FiveTuple, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stop := pollStats(func() { _ = p.Stats() })
	if _, err := Replay(NewSliceSource(meta, pkts), p, WithBatchSize(64)); err != nil {
		stop()
		t.Fatal(err)
	}
	stop()

	ps := p.Stats()
	if ps.Shards != 1 || len(ps.Lanes) != 1 || len(ps.Algorithms) != 1 {
		t.Fatalf("shape: %d shards, %d lanes, %d algorithms", ps.Shards, len(ps.Lanes), len(ps.Algorithms))
	}
	got := ps.Algorithms[0]
	if got.Packets != want.Packets || got.Bytes != want.Bytes {
		t.Errorf("traffic: pipeline %d pkts / %d bytes, device %d / %d",
			got.Packets, got.Bytes, want.Packets, want.Bytes)
	}
	if got.FilterPasses != want.FilterPasses || got.Drops != want.Drops {
		t.Errorf("admissions: pipeline %d passes / %d drops, device %d / %d",
			got.FilterPasses, got.Drops, want.FilterPasses, want.Drops)
	}
	if got.Preserved != want.Preserved || got.Evictions != want.Evictions {
		t.Errorf("transitions: pipeline %d preserved / %d evicted, device %d / %d",
			got.Preserved, got.Evictions, want.Preserved, want.Evictions)
	}
	if got.Intervals != want.Intervals || got.EntriesUsed != want.EntriesUsed || got.Threshold != want.Threshold {
		t.Errorf("state: pipeline {iv %d used %d T %d}, device {iv %d used %d T %d}",
			got.Intervals, got.EntriesUsed, got.Threshold, want.Intervals, want.EntriesUsed, want.Threshold)
	}
	if got.Mem != want.Mem {
		t.Errorf("memory accounting: pipeline %+v, device %+v", got.Mem, want.Mem)
	}
	lane := ps.Lanes[0]
	if lane.Packets != want.Packets {
		t.Errorf("lane packets %d, device %d", lane.Packets, want.Packets)
	}
	if lane.Batches == 0 || lane.Intervals != uint64(meta.Intervals) {
		t.Errorf("lane: %d batches, %d interval flushes, want >0 and %d", lane.Batches, lane.Intervals, meta.Intervals)
	}
	if ps.Reports != meta.Intervals {
		t.Errorf("reports: got %d, want %d", ps.Reports, meta.Intervals)
	}
}

// TestPipelineTelemetryAggregatesAcrossShards checks the multi-shard case:
// per-lane counters must sum to the trace totals with nothing double- or
// un-counted, again with a concurrent Stats poller under -race.
func TestPipelineTelemetryAggregatesAcrossShards(t *testing.T) {
	meta, pkts, capacity := collectTrace(t, "COS", 0.02, 3)
	wantPackets, wantBytes := traceTotals(pkts)
	p, err := NewPipeline(PipelineConfig{
		Shards: 4, QueueDepth: 64, BatchSize: 64,
		NewAlgorithm: func(shard int) (Algorithm, error) {
			return NewMultistageFilter(MultistageConfig{
				Stages: 3, Buckets: 256, Entries: 128,
				Threshold:    uint64(0.0005 * capacity),
				Conservative: true, Shield: true, Preserve: true,
				Seed: int64(shard) + 3,
			})
		},
		Definition: FiveTuple, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stop := pollStats(func() { _ = p.Stats() })
	n, err := Replay(NewSliceSource(meta, pkts), p, WithBatchSize(61))
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != wantPackets {
		t.Fatalf("replayed %d packets, trace has %d", n, wantPackets)
	}

	ps := p.Stats()
	if ps.Shards != 4 || len(ps.Lanes) != 4 || len(ps.Algorithms) != 4 {
		t.Fatalf("shape: %d shards, %d lanes, %d algorithms", ps.Shards, len(ps.Lanes), len(ps.Algorithms))
	}
	if got := ps.Packets(); got != wantPackets {
		t.Errorf("lane packet sum %d, trace has %d", got, wantPackets)
	}
	var algPackets, algBytes uint64
	for i, a := range ps.Algorithms {
		algPackets += a.Packets
		algBytes += a.Bytes
		if a.Intervals != uint64(meta.Intervals) {
			t.Errorf("shard %d closed %d intervals, want %d", i, a.Intervals, meta.Intervals)
		}
		if a.Stale {
			t.Errorf("shard %d snapshot marked stale", i)
		}
	}
	if algPackets != wantPackets || algBytes != wantBytes {
		t.Errorf("algorithm sums: %d pkts / %d bytes, trace has %d / %d",
			algPackets, algBytes, wantPackets, wantBytes)
	}
	for i, l := range ps.Lanes {
		if l.Intervals != uint64(meta.Intervals) {
			t.Errorf("lane %d flushed %d intervals, want %d", i, l.Intervals, meta.Intervals)
		}
	}
	if ps.Reports != meta.Intervals || len(p.Reports()) != meta.Intervals {
		t.Errorf("reports: stats %d, Reports() %d, want %d", ps.Reports, len(p.Reports()), meta.Intervals)
	}
}
