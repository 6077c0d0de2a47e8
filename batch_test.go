package traffic

// Equivalence tests for the batched packet hot path: batching is a pure
// throughput optimization, so batched and per-packet replay must produce
// identical interval reports — same estimates, same order, same thresholds —
// for every algorithm variant, including partial batches at interval
// boundaries (the batch sizes below do not divide the per-interval packet
// counts).

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/adapt"
	"repro/internal/trace"
)

// collectTrace generates a scaled preset trace and returns it as replayable
// packets so every run sees the identical packet sequence.
func collectTrace(t testing.TB, preset string, scale float64, intervals int) (TraceMeta, []Packet, float64) {
	t.Helper()
	cfg, err := Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(scale).WithIntervals(intervals)
	src, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []Packet
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	return src.Meta(), pkts, cfg.Capacity()
}

func requireSameReports(t *testing.T, label string, perPacket, batched []IntervalReport) {
	t.Helper()
	if len(perPacket) != len(batched) {
		t.Fatalf("%s: %d per-packet reports vs %d batched", label, len(perPacket), len(batched))
	}
	for i := range perPacket {
		a, b := perPacket[i], batched[i]
		if a.Interval != b.Interval || a.Threshold != b.Threshold || a.EntriesUsed != b.EntriesUsed {
			t.Fatalf("%s interval %d: header mismatch: per-packet {iv %d T %d used %d} vs batched {iv %d T %d used %d}",
				label, i, a.Interval, a.Threshold, a.EntriesUsed, b.Interval, b.Threshold, b.EntriesUsed)
		}
		if len(a.Estimates) != len(b.Estimates) {
			t.Fatalf("%s interval %d: %d estimates per-packet vs %d batched",
				label, i, len(a.Estimates), len(b.Estimates))
		}
		for j := range a.Estimates {
			if a.Estimates[j] != b.Estimates[j] {
				t.Fatalf("%s interval %d estimate %d: per-packet %+v vs batched %+v",
					label, i, j, a.Estimates[j], b.Estimates[j])
			}
		}
	}
}

// TestBatchedReplayEquivalenceMultistage runs every combination of the
// Conservative/Shield/Preserve/Serial optimization flags through the
// per-packet and the batched replay path and requires identical reports.
func TestBatchedReplayEquivalenceMultistage(t *testing.T) {
	meta, pkts, capacity := collectTrace(t, "COS", 0.02, 3)
	for mask := 0; mask < 16; mask++ {
		cfg := MultistageConfig{
			Stages: 3, Buckets: 256, Entries: 128,
			Threshold:    uint64(0.0005 * capacity),
			Conservative: mask&1 != 0,
			Shield:       mask&2 != 0,
			Preserve:     mask&4 != 0,
			Serial:       mask&8 != 0,
			Seed:         11,
		}
		label := fmt.Sprintf("multistage conservative=%v shield=%v preserve=%v serial=%v",
			cfg.Conservative, cfg.Shield, cfg.Preserve, cfg.Serial)
		run := func(batchSize int) []IntervalReport {
			alg, err := NewMultistageFilter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev := NewDevice(alg, FiveTuple, NewAdaptor(MultistageAdaptation()))
			if _, err := Replay(NewSliceSource(meta, pkts), dev, WithBatchSize(batchSize)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return dev.Reports()
		}
		perPacket := run(1)
		// 37 does not divide the interval packet counts, so partial-batch
		// flushing at boundaries is exercised on every interval.
		requireSameReports(t, label, perPacket, run(37))
		requireSameReports(t, label+" (default batch)", perPacket, run(trace.DefaultBatchSize))
	}
}

// TestBatchedReplayEquivalenceHashFamilies runs the non-default hash
// families through the per-packet and batched replay paths: a batch of one
// and a batch of many must land every key on identical buckets and leave
// identical reports.
func TestBatchedReplayEquivalenceHashFamilies(t *testing.T) {
	meta, pkts, capacity := collectTrace(t, "COS", 0.02, 3)
	for _, hash := range []string{"multiplyshift", "doublehash"} {
		cfg := MultistageConfig{
			Stages: 4, Buckets: 256, Entries: 128,
			Threshold:    uint64(0.0005 * capacity),
			Conservative: true, Shield: true, Preserve: true,
			Hash: hash, Seed: 11,
		}
		run := func(batchSize int) []IntervalReport {
			alg, err := NewMultistageFilter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev := NewDevice(alg, FiveTuple, NewAdaptor(MultistageAdaptation()))
			if _, err := Replay(NewSliceSource(meta, pkts), dev, WithBatchSize(batchSize)); err != nil {
				t.Fatalf("%s: %v", hash, err)
			}
			return dev.Reports()
		}
		perPacket := run(1)
		requireSameReports(t, hash, perPacket, run(37))
		requireSameReports(t, hash+" (default batch)", perPacket, run(trace.DefaultBatchSize))
	}
}

// TestBatchedReplayEquivalenceSampleAndHold does the same for sample and
// hold: the batched kernel must consume the sampling RNG in exactly the
// per-packet order, so the sampled flows are identical.
func TestBatchedReplayEquivalenceSampleAndHold(t *testing.T) {
	meta, pkts, capacity := collectTrace(t, "COS", 0.02, 3)
	for _, cfg := range []SampleAndHoldConfig{
		{Entries: 128, Threshold: uint64(0.0005 * capacity), Oversampling: 4, Seed: 5},
		{Entries: 128, Threshold: uint64(0.0005 * capacity), Oversampling: 4, Seed: 5, Preserve: true},
		{Entries: 128, Threshold: uint64(0.0005 * capacity), Oversampling: 4.7, Seed: 5, Preserve: true, EarlyRemoval: 0.15},
		{Entries: 128, Threshold: uint64(0.0005 * capacity), Oversampling: 4, Seed: 5, Correction: true},
	} {
		label := fmt.Sprintf("sample-and-hold preserve=%v early=%g correction=%v",
			cfg.Preserve, cfg.EarlyRemoval, cfg.Correction)
		run := func(batchSize int) []IntervalReport {
			alg, err := NewSampleAndHold(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev := NewDevice(alg, FiveTuple, NewAdaptor(adapt.SampleAndHoldDefaults()))
			if _, err := Replay(NewSliceSource(meta, pkts), dev, WithBatchSize(batchSize)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return dev.Reports()
		}
		perPacket := run(1)
		requireSameReports(t, label, perPacket, run(53))
		requireSameReports(t, label+" (default batch)", perPacket, run(trace.DefaultBatchSize))
	}
}

// TestBatchedPipelineEquivalence: the sharded pipeline with lane batching
// (one channel op per batch) merges to the same reports as the unbatched
// per-packet pipeline, for both paper algorithms.
func TestBatchedPipelineEquivalence(t *testing.T) {
	meta, pkts, capacity := collectTrace(t, "COS", 0.02, 3)
	algs := map[string]func(shard int) (Algorithm, error){
		"multistage": func(shard int) (Algorithm, error) {
			return NewMultistageFilter(MultistageConfig{
				Stages: 3, Buckets: 256, Entries: 128,
				Threshold:    uint64(0.0005 * capacity),
				Conservative: true, Shield: true, Preserve: true,
				Seed: int64(shard) + 3,
			})
		},
		"sample-and-hold": func(shard int) (Algorithm, error) {
			return NewSampleAndHold(SampleAndHoldConfig{
				Entries: 128, Threshold: uint64(0.0005 * capacity),
				Oversampling: 4, Preserve: true, Seed: int64(shard) + 3,
			})
		},
	}
	for name, newAlg := range algs {
		run := func(batchSize, replayBatchSize int) []IntervalReport {
			p, err := NewPipeline(PipelineConfig{
				Shards: 4, QueueDepth: 64, BatchSize: batchSize,
				NewAlgorithm: newAlg, Definition: FiveTuple, Seed: 17,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if _, err := Replay(NewSliceSource(meta, pkts), p, WithBatchSize(replayBatchSize)); err != nil {
				t.Fatal(err)
			}
			return p.Reports()
		}
		perPacket := run(1, 1)
		batched := run(64, 61)
		if len(perPacket) != len(batched) {
			t.Fatalf("%s: %d vs %d pipeline reports", name, len(perPacket), len(batched))
		}
		for i := range perPacket {
			a, b := perPacket[i], batched[i]
			if a.Interval != b.Interval || len(a.Estimates) != len(b.Estimates) {
				t.Fatalf("%s interval %d: %d estimates per-packet vs %d batched",
					name, i, len(a.Estimates), len(b.Estimates))
			}
			for j := range a.Estimates {
				if a.Estimates[j] != b.Estimates[j] {
					t.Fatalf("%s interval %d estimate %d: %+v vs %+v",
						name, i, j, a.Estimates[j], b.Estimates[j])
				}
			}
		}
	}
}
