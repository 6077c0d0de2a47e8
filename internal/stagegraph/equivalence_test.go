package stagegraph

import (
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/core/flowmem"
	"repro/internal/core/multistage"
	"repro/internal/flow"
)

// refModel is an independent re-implementation of the fixed shard→lane
// pipeline's semantics, built straight from core primitives: per-flow
// sharding by the flow memory key hash (shardOf), one algorithm per shard
// fed per packet, and the same merge (concatenate, sort descending bytes,
// ties by descending key). The differential tests below assert the compiled
// preset graph is bit-identical to it — i.e. the stage-graph refactor and
// the SPSC/hash-forwarding rebuild preserved the pipeline's observable
// behavior exactly.
type refModel struct {
	def     flow.Definition
	algs    []core.Algorithm
	shards  uint32
	reports []core.IntervalReport
}

func newRefModel(t *testing.T, cfg MeasureConfig) *refModel {
	t.Helper()
	r := &refModel{def: cfg.Definition, shards: uint32(cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		alg, err := cfg.NewAlgorithm(i)
		if err != nil {
			t.Fatal(err)
		}
		r.algs = append(r.algs, alg)
	}
	return r
}

func (r *refModel) packet(p *flow.Packet) {
	key := r.def.Key(p)
	shard := 0
	if r.shards > 1 {
		shard = shardOf(flowmem.Hash(key), r.shards)
	}
	r.algs[shard].Process(key, p.Size)
}

func (r *refModel) endInterval(interval int) {
	rep := core.IntervalReport{Interval: interval, Threshold: r.algs[0].Threshold()}
	for _, alg := range r.algs {
		rep.Estimates = append(rep.Estimates, alg.EndInterval()...)
	}
	rep.EntriesUsed = len(rep.Estimates)
	sort.Slice(rep.Estimates, func(i, j int) bool {
		a, b := rep.Estimates[i], rep.Estimates[j]
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		if a.Key.Hi != b.Key.Hi {
			return a.Key.Hi > b.Key.Hi
		}
		return a.Key.Lo > b.Key.Lo
	})
	r.reports = append(r.reports, rep)
}

// equivTrace is a deterministic heavy-tailed workload: a few heavy flows,
// many small ones, interval boundaries not aligned to batch sizes.
func equivTrace(n int) []flow.Packet {
	rng := rand.New(rand.NewSource(99))
	pkts := make([]flow.Packet, n)
	for i := range pkts {
		src := uint32(rng.Intn(300))
		if rng.Intn(4) == 0 {
			src = uint32(rng.Intn(8)) // heavy hitters
		}
		pkts[i] = flow.Packet{
			SrcIP: src, DstIP: uint32(rng.Intn(3)), Proto: 6,
			SrcPort: uint16(rng.Intn(4)),
			Size:    uint32(40 + rng.Intn(1460)),
		}
	}
	return pkts
}

func msConfig(hash string) func(int) (core.Algorithm, error) {
	return func(shard int) (core.Algorithm, error) {
		return multistage.New(multistage.Config{
			Stages: 3, Buckets: 128, Entries: 4096,
			Threshold: 20000, Conservative: true,
			Hash: hash, Seed: int64(shard) + 21,
		})
	}
}

// panicOnceAlg wraps a real algorithm and panics on exactly one Process
// call (the trip'th packet seen across the wrapper's shard), simulating a
// lane algorithm fault mid-stream. The wrapper deliberately does not
// implement BatchAlgorithm, so lanes fall back to per-packet Process — the
// panic lands inside a batch, exercising the shed-on-panic recovery path.
type panicOnceAlg struct {
	core.Algorithm
	seen *atomic.Int64
	trip int64
}

func (p *panicOnceAlg) Process(key flow.Key, size uint32) {
	if p.seen.Add(1) == p.trip {
		panic("injected lane algorithm fault")
	}
	p.Algorithm.Process(key, size)
}

// TestShardedRestartMidStreamMatchesReference injects a lane algorithm
// panic mid-stream on one shard of a 4-shard engine with RestartOnPanic:
// the faulted shard sheds its in-flight batch and restarts with fresh flow
// memory, while the other three shards must stay bit-identical to the
// reference model throughout. Run under -race in CI.
func TestShardedRestartMidStreamMatchesReference(t *testing.T) {
	const shards = 4
	const faultShard = 2
	pkts := equivTrace(30000)
	intervals := 3
	perInterval := len(pkts) / intervals
	var seen atomic.Int64
	cfg := MeasureConfig{
		Shards: shards, QueueDepth: 64, RestartOnPanic: true,
		NewAlgorithm: func(shard int) (core.Algorithm, error) {
			alg, err := msConfig("tabulation")(shard)
			if err != nil || shard != faultShard {
				return alg, err
			}
			// Trip partway into the stream; the counter is shared across
			// restarts so the replacement instance never re-panics.
			return &panicOnceAlg{Algorithm: alg, seen: &seen, trip: 2000}, nil
		},
		Definition: flow.FiveTuple{}, Seed: 5,
	}
	g, err := New(Config{Topology: PresetShardLane(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	refCfg := cfg
	refCfg.NewAlgorithm = msConfig("tabulation")
	ref := newRefModel(t, refCfg)
	for iv := 0; iv < intervals; iv++ {
		chunk := pkts[iv*perInterval : (iv+1)*perInterval]
		for off := 0; off < len(chunk); off += 64 {
			end := min(off+64, len(chunk))
			g.PacketBatch(chunk[off:end])
		}
		for i := range chunk {
			ref.packet(&chunk[i])
		}
		g.EndInterval(iv)
		ref.endInterval(iv)
	}
	g.Close()
	// The healthy shards must be bit-identical to the reference model:
	// compare each interval's estimates with the faulted shard's flows
	// filtered out of both sides (descending sort order is preserved by
	// filtering, so the filtered lists must match exactly).
	healthy := func(ests []core.Estimate) []core.Estimate {
		var out []core.Estimate
		for _, e := range ests {
			if shardOf(flowmem.Hash(e.Key), shards) != faultShard {
				out = append(out, e)
			}
		}
		return out
	}
	got, want := g.Reports(), ref.reports
	if len(got) != len(want) {
		t.Fatalf("%d reports vs %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(healthy(got[i].Estimates), healthy(want[i].Estimates)) {
			t.Errorf("interval %d: healthy shards diverge from the reference model", i)
		}
	}
	// The fault must be visible in telemetry: one panic, one restart, and
	// the in-flight batch shed on the faulted lane only.
	st := g.Stats().Measures["measure"]
	for i, ln := range st.Lanes {
		if i == faultShard {
			if ln.Panics != 1 || ln.Restarts != 1 || ln.ShedBatches == 0 {
				t.Errorf("fault lane: panics=%d restarts=%d shed=%d, want 1/1/>0",
					ln.Panics, ln.Restarts, ln.ShedBatches)
			}
			continue
		}
		if ln.Panics != 0 || ln.Restarts != 0 || ln.ShedBatches != 0 {
			t.Errorf("lane %d: panics=%d restarts=%d shed=%d, want untouched",
				i, ln.Panics, ln.Restarts, ln.ShedBatches)
		}
	}
}

// TestPresetGraphMatchesReferenceModel is the topology-equivalence
// differential: the preset shard→lane graph must produce bit-identical
// interval reports and matching telemetry totals to the independent
// reference model, across 3 hash families × batch sizes {1, 64, 1024} ×
// shard counts {1, 2, 4, 8}. The hash families deliberately straddle the
// hash-forwarding split: multi-shard tabulation and multiplyshift lanes
// probe their flow memory with the producer's shard hash, doublehash lanes
// ignore it and probe with their deriver's base hash.
// Run under -race in CI.
func TestPresetGraphMatchesReferenceModel(t *testing.T) {
	pkts := equivTrace(30000)
	intervals := 3
	perInterval := len(pkts) / intervals
	for _, hash := range []string{"tabulation", "multiplyshift", "doublehash"} {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, feed := range []int{1, 64, 1024} {
				cfg := MeasureConfig{
					Shards: shards, QueueDepth: 64,
					NewAlgorithm: msConfig(hash),
					Definition:   flow.FiveTuple{}, Seed: 5,
				}
				g, err := New(Config{Topology: PresetShardLane(cfg)})
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefModel(t, cfg)
				for iv := 0; iv < intervals; iv++ {
					chunk := pkts[iv*perInterval : (iv+1)*perInterval]
					for off := 0; off < len(chunk); off += feed {
						end := off + feed
						if end > len(chunk) {
							end = len(chunk)
						}
						if feed == 1 {
							g.Packet(&chunk[off])
						} else {
							g.PacketBatch(chunk[off:end])
						}
					}
					for i := range chunk {
						ref.packet(&chunk[i])
					}
					g.EndInterval(iv)
					ref.endInterval(iv)
				}
				g.Close()
				got, want := g.Reports(), ref.reports
				if len(got) != len(want) {
					t.Fatalf("%s/%d-shard/feed-%d: %d reports vs %d",
						hash, shards, feed, len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Estimates, want[i].Estimates) ||
						got[i].Interval != want[i].Interval ||
						got[i].Threshold != want[i].Threshold ||
						got[i].EntriesUsed != want[i].EntriesUsed {
						t.Errorf("%s/%d-shard/feed-%d: interval %d diverges from the reference model",
							hash, shards, feed, i)
					}
				}
				// Telemetry totals: every packet fed is accounted for by the
				// lanes — none shed, none degraded — and every lane saw all
				// interval flushes.
				st := g.Stats().Measures["measure"]
				var lanePkts, shed, degraded, flushes uint64
				for _, ln := range st.Lanes {
					lanePkts += ln.Packets
					shed += ln.ShedPackets
					degraded += ln.DegradedPackets
					flushes += ln.Intervals
				}
				if lanePkts != uint64(len(pkts)) || shed != 0 || degraded != 0 {
					t.Errorf("%s/%d-shard/feed-%d: lanes saw %d packets (shed %d, degraded %d), want %d lossless",
						hash, shards, feed, lanePkts, shed, degraded, len(pkts))
				}
				if flushes != uint64(shards*intervals) {
					t.Errorf("%s/%d-shard/feed-%d: %d lane flushes, want %d",
						hash, shards, feed, flushes, shards*intervals)
				}
			}
		}
	}
}
