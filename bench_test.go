package traffic

// Benchmarks regenerating every table and figure of the paper, plus
// per-packet microbenchmarks of the algorithms. Each BenchmarkTableN /
// BenchmarkFigureN runs the corresponding experiment driver (the same code
// cmd/experiments uses) at a reduced scale and reports the headline numbers
// as benchmark metrics, so `go test -bench .` regenerates the whole
// evaluation.
//
// Paper-scale runs: `go run ./cmd/experiments -full`.

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core/flowmem"
	"repro/internal/experiments"
)

// benchOpts keeps per-iteration cost low; shapes (who wins, by what factor)
// are already verified by the experiments package's tests.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.02, Runs: 1, Intervals: 4, Seed: 1}
}

func BenchmarkTable1CoreComparison(b *testing.B) {
	var sh, smp float64
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(0, 0, 0, 0, 0)
		sh = res.Rows[0].RelativeError
		smp = res.Rows[2].RelativeError
	}
	b.ReportMetric(sh*100, "S&H-relerr-%")
	b.ReportMetric(smp*100, "sampling-relerr-%")
}

func BenchmarkTable2DeviceComparison(b *testing.B) {
	var longLived float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		longLived = res.LongLivedPct
	}
	b.ReportMetric(longLived, "longlived-%")
}

func BenchmarkTable3TraceStats(b *testing.B) {
	var flows float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		flows = res.Stats[1].Flows["5-tuple"].Avg
	}
	b.ReportMetric(flows, "MAG-5tuple-flows")
}

func BenchmarkFigure6FlowSizeCDF(b *testing.B) {
	var top10 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		top10 = res.Series[0].TopShare(10)
	}
	b.ReportMetric(top10, "MAG-top10%-traffic-%")
}

func BenchmarkTable4SampleAndHold(b *testing.B) {
	var basicErr, preserveErr float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		basicErr = res.Rows[2].Cells[0].AvgErrorPct
		preserveErr = res.Rows[3].Cells[0].AvgErrorPct
	}
	b.ReportMetric(basicErr, "basic-err-%ofT")
	b.ReportMetric(preserveErr, "preserve-err-%ofT")
}

func BenchmarkFigure7FilterDepth(b *testing.B) {
	var parallel, conservative float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Depths) - 1
		parallel = res.Series["parallel"][last]
		conservative = res.Series["conservative update"][last]
	}
	b.ReportMetric(parallel, "parallel-d4-FP-%")
	b.ReportMetric(conservative, "conservative-d4-FP-%")
}

func benchmarkDeviceTable(b *testing.B, def string) {
	var shErr, nfErr float64
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Intervals = 8
		res, err := experiments.CompareDevices(def, o)
		if err != nil {
			b.Fatal(err)
		}
		shErr = res.Results["sample-and-hold"][0].AvgErrorPct
		nfErr = res.Results["sampled-netflow"][0].AvgErrorPct
	}
	b.ReportMetric(shErr, "S&H-vlarge-err-%")
	b.ReportMetric(nfErr, "netflow-vlarge-err-%")
}

func BenchmarkTable5Devices5Tuple(b *testing.B) { benchmarkDeviceTable(b, "5-tuple") }
func BenchmarkTable6DevicesDstIP(b *testing.B)  { benchmarkDeviceTable(b, "dstIP") }
func BenchmarkTable7DevicesASPair(b *testing.B) { benchmarkDeviceTable(b, "ASpair") }

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Intervals = 3
		if _, err := experiments.Ablations(o); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Per-packet microbenchmarks of the public API ----

func benchPackets(b *testing.B, alg Algorithm) {
	b.Helper()
	key := FlowKey{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key.Lo = uint64(i % 50000)
		alg.Process(key, 1000)
	}
}

func BenchmarkSampleAndHoldPerPacket(b *testing.B) {
	alg, err := NewSampleAndHold(SampleAndHoldConfig{
		Entries: 4096, Threshold: 1 << 20, Oversampling: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchPackets(b, alg)
}

func BenchmarkMultistageFilterPerPacket(b *testing.B) {
	alg, err := NewMultistageFilter(MultistageConfig{
		Stages: 4, Buckets: 4096, Entries: 3584, Threshold: 1 << 30,
		Conservative: true, Shield: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchPackets(b, alg)
}

func BenchmarkSampledNetFlowPerPacket(b *testing.B) {
	alg, err := NewSampledNetFlow(NetFlowConfig{SamplingRate: 16})
	if err != nil {
		b.Fatal(err)
	}
	benchPackets(b, alg)
}

func BenchmarkOrdinarySamplingPerPacket(b *testing.B) {
	alg, err := NewOrdinarySampling(OrdinarySamplingConfig{
		Entries: 4096, Probability: 1.0 / 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchPackets(b, alg)
}

// ---- Batched hot path: per-packet vs. batched pipeline on the COS preset ----

// benchCOSPackets generates the scaled COS trace once per benchmark and
// returns it as replayable packets.
func benchCOSPackets(b *testing.B) (TraceMeta, []Packet, float64) {
	b.Helper()
	cfg, err := Preset("COS")
	if err != nil {
		b.Fatal(err)
	}
	cfg = cfg.Scaled(0.05).WithIntervals(2)
	src, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pkts []Packet
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	return src.Meta(), pkts, cfg.Capacity()
}

// benchReplayPipeline replays the COS trace through a multistage pipeline;
// batch size 1 is the per-packet baseline (one channel op and one Process
// call per packet), larger sizes take the batched hot path end to end.
func benchReplayPipeline(b *testing.B, shards int, hash string, batchSize, replayBatchSize int) {
	meta, pkts, capacity := benchCOSPackets(b)
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pipeline construction (hash-table generation, buffer prealloc) is
		// setup, not hot path: keep it out of the timed region.
		b.StopTimer()
		p, err := NewPipeline(PipelineConfig{
			Shards: shards, QueueDepth: 256, BatchSize: batchSize,
			NewAlgorithm: func(shard int) (Algorithm, error) {
				return NewMultistageFilter(MultistageConfig{
					Stages: 4, Buckets: 256, Entries: 128,
					Threshold:    uint64(0.001 * capacity),
					Conservative: true, Shield: true, Preserve: true,
					Hash: hash, Seed: int64(shard) + 1,
				})
			},
			Definition: FiveTuple, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		src := NewSliceSource(meta, pkts)
		b.StartTimer()
		n, err := Replay(src, p, WithBatchSize(replayBatchSize))
		p.Close()
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkReplayPipelinePerPacket is the pre-batching baseline path.
func BenchmarkReplayPipelinePerPacket(b *testing.B) {
	benchReplayPipeline(b, 4, "", 1, 1)
}

// BenchmarkReplayBatched is the batched path end to end: batched source
// reads, bulk key extraction, per-lane batch buffering (one channel op per
// 64 packets) and the algorithms' batched kernels.
func BenchmarkReplayBatched(b *testing.B) {
	benchReplayPipeline(b, 4, "", 64, DefaultBatchSize)
}

// BenchmarkReplayBatchedSingleShard is the fused kernel's intended
// single-core deployment shape: one lane (shard selection skipped on the
// producer), the doublehash family (one base hash per packet serving the
// filter stages and the flow memory probe), and 256-packet bursts so
// ring handoffs amortize further than the 4-lane default.
func BenchmarkReplayBatchedSingleShard(b *testing.B) {
	benchReplayPipeline(b, 1, "doublehash", 256, 256)
}

// BenchmarkPipelineShardsN is the shard-scaling curve: the same replay at
// 1, 2, 4 and 8 lanes with identical per-lane configuration, so the ratio
// of the pkts/s metrics is the pipeline's parallel speedup. On a
// multi-core box 4 shards should clear 2.5× the single-shard rate (the
// SPSC handoff and fused shard partitioning keep the producer off the
// critical path); on a single-CPU box the lanes time-slice and the curve is
// flat — compare pkts/s, not ns/op, and read EXPERIMENTS.md for the
// recorded curve.
func BenchmarkPipelineShards1(b *testing.B) { benchReplayPipeline(b, 1, "doublehash", 256, 256) }
func BenchmarkPipelineShards2(b *testing.B) { benchReplayPipeline(b, 2, "doublehash", 256, 256) }
func BenchmarkPipelineShards4(b *testing.B) { benchReplayPipeline(b, 4, "doublehash", 256, 256) }
func BenchmarkPipelineShards8(b *testing.B) { benchReplayPipeline(b, 8, "doublehash", 256, 256) }

// BenchmarkPipelineBatchedSteadyState measures the steady-state producer
// loop of the batched pipeline: per-op cost of Packet into lane buffers with
// recycled batches. Allocations per op must be zero.
func BenchmarkPipelineBatchedSteadyState(b *testing.B) {
	p, err := NewPipeline(PipelineConfig{
		Shards: 4, QueueDepth: 256, BatchSize: 64,
		NewAlgorithm: func(shard int) (Algorithm, error) {
			return NewSampleAndHold(SampleAndHoldConfig{
				Entries: 4096, Threshold: 1 << 20, Oversampling: 4, Seed: int64(shard),
			})
		},
		Definition: FiveTuple, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pk := Packet{Size: 1000, DstIP: 2, Proto: 6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.SrcIP = uint32(i % 10000)
		p.Packet(&pk)
	}
	b.StopTimer()
	p.EndInterval(0)
}

// ---- Batched kernel microbenchmarks (no pipeline, algorithm only) ----

func benchPacketBatches(b *testing.B, alg Algorithm) {
	b.Helper()
	const batch = 64
	keys := make([]FlowKey, batch)
	sizes := make([]uint32, batch)
	for i := range sizes {
		sizes[i] = 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j].Lo = uint64((i*batch + j) % 50000)
		}
		ProcessBatch(alg, keys, sizes)
	}
	// One op is a whole batch; normalize for comparison against the
	// per-packet benchmarks.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
}

func BenchmarkSampleAndHoldPerBatch(b *testing.B) {
	alg, err := NewSampleAndHold(SampleAndHoldConfig{
		Entries: 4096, Threshold: 1 << 20, Oversampling: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchPacketBatches(b, alg)
}

func BenchmarkMultistageFilterPerBatch(b *testing.B) {
	alg, err := NewMultistageFilter(MultistageConfig{
		Stages: 4, Buckets: 4096, Entries: 3584, Threshold: 1 << 30,
		Conservative: true, Shield: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchPacketBatches(b, alg)
}

// ---- Cache-conscious core microbenchmarks: flow memory and filter ----

// BenchmarkFlowMemLookupUpdate is the warm per-packet path of every
// algorithm: a hit in the open-addressing flow table plus a counter update.
// Allocations per op must be zero.
func BenchmarkFlowMemLookupUpdate(b *testing.B) {
	m := flowmem.New(4096)
	const flows = 3000
	for i := 0; i < flows; i++ {
		k := FlowKey{Lo: uint64(i)}
		m.InsertHash(flowmem.Hash(k), k, 1)
	}
	key := FlowKey{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key.Lo = uint64(i % flows)
		if e := m.LookupHash(flowmem.Hash(key), key); e != nil {
			e.Bytes += 1000
		}
	}
}

// BenchmarkFlowMemLookupMiss is the untracked-flow path: a probe that ends
// on an empty slot.
func BenchmarkFlowMemLookupMiss(b *testing.B) {
	m := flowmem.New(4096)
	for i := 0; i < 3000; i++ {
		k := FlowKey{Lo: uint64(i)}
		m.InsertHash(flowmem.Hash(k), k, 1)
	}
	key := FlowKey{Hi: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key.Lo = uint64(i)
		if m.LookupHash(flowmem.Hash(key), key) != nil {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkFlowMemReport measures the per-interval report on a warm table:
// the sorted scratch is reused, so steady-state allocations per op must be
// zero (amortized — the first call grows the scratch).
func BenchmarkFlowMemReport(b *testing.B) {
	m := flowmem.New(4096)
	for i := 0; i < 3000; i++ {
		k := FlowKey{Lo: uint64(i)}
		m.InsertHash(flowmem.Hash(k), k, uint64(i*37%5000))
	}
	m.Report() // warm the scratch outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := m.Report(); len(r) != 3000 {
			b.Fatal("short report")
		}
	}
}

// benchFilterBatch measures the filter's batched kernel for one hash family
// at the per-packet microbenchmark settings (mostly untracked flows, so the
// per-packet hash cost dominates).
func benchFilterBatch(b *testing.B, hash string) {
	alg, err := NewMultistageFilter(MultistageConfig{
		Stages: 4, Buckets: 4096, Entries: 3584, Threshold: 1 << 30,
		Conservative: true, Shield: true, Hash: hash, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchPacketBatches(b, alg)
}

// BenchmarkFilterBatchTabulation is the default family: d independent
// tabulation hashes per packet (16 table probes each).
func BenchmarkFilterBatchTabulation(b *testing.B) { benchFilterBatch(b, "tabulation") }

// BenchmarkFilterBatchMultiplyShift is the middle ground: d independent
// 2-independent multiply-shift hashes per packet, no table lookups.
func BenchmarkFilterBatchMultiplyShift(b *testing.B) { benchFilterBatch(b, "multiplyshift") }

// BenchmarkFilterBatchDoubleHash is the Kirsch–Mitzenmacher fast path: one
// base hash per packet, all d stage buckets derived as h1 + i·h2.
func BenchmarkFilterBatchDoubleHash(b *testing.B) { benchFilterBatch(b, "doublehash") }

// BenchmarkFilterEndIntervalDRAM gates the multistage interval close at
// DRAM scale. Each op replays one MAG ×0.1 interval (~62 k packets, 5-tuple
// flows) into a conservative, shielded, preserving filter with 4×2^20
// counters (32 MiB) and 65 536 entries with the timer stopped, then times
// only the close into a reused report arena. A close that does work in
// proportion to the counter memory, or sorts whole entries, shows up here.
func BenchmarkFilterEndIntervalDRAM(b *testing.B) {
	cfg, err := Preset("MAG")
	if err != nil {
		b.Fatal(err)
	}
	cfg = cfg.Scaled(0.1).WithIntervals(1)
	src, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var keys []FlowKey
	var sizes []uint32
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		keys = append(keys, FiveTuple.Key(&p))
		sizes = append(sizes, p.Size)
	}
	alg, err := NewMultistageFilter(MultistageConfig{
		Stages: 4, Buckets: 1 << 20, Entries: 65536,
		Threshold:    uint64(0.001 * cfg.Capacity()),
		Conservative: true, Shield: true, Preserve: true, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	closer := alg.(interface {
		AppendEstimates(dst []Estimate) []Estimate
	})
	var arena []Estimate
	replay := func() {
		for i := 0; i < len(keys); i += 256 {
			end := min(i+256, len(keys))
			ProcessBatch(alg, keys[i:end], sizes[i:end])
		}
	}
	// Preserved entries reach their steady state after a few intervals.
	for i := 0; i < 3; i++ {
		replay()
		arena = closer.AppendEstimates(arena[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		replay()
		b.StartTimer()
		arena = closer.AppendEstimates(arena[:0])
	}
}

// benchSink keeps pure-compute benchmark results alive.
var benchSink uint64

// BenchmarkCalibration is a fixed pure-compute workload — 1024 dependent
// 64-bit mixes per op, no memory traffic beyond registers — that measures
// only the machine's scalar speed. cmd/benchgate divides guarded kernel
// timings by this to compare runs across machines of different clock rates.
func BenchmarkCalibration(b *testing.B) {
	var h uint64 = 0x9E3779B97F4A7C15
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 29
		}
	}
	benchSink = h
}

var (
	memCalOnce sync.Once
	memCalBuf  []uint64
)

// memCalInit builds a Sattolo cycle over cache-line-spaced slots of a 16 MiB
// buffer: following it is a chain of dependent cache-missing loads.
func memCalInit() {
	const slots = (16 << 20) / 64
	rng := rand.New(rand.NewSource(7))
	memCalBuf = make([]uint64, (16<<20)/8)
	perm := rng.Perm(slots)
	for i, p := range perm {
		next := perm[(i+1)%len(perm)]
		memCalBuf[p*8] = uint64(next * 8)
	}
}

// BenchmarkCalibrationMem is the memory-side calibration twin: 4096
// dependent cache-line loads per op over a fixed 16 MiB pointer chase, pure
// memory latency with no compute. The guarded kernels are memory-bound, so
// on hosts whose memory path degrades under contention (shared VMs with
// noisy neighbors) their timings track this workload, not the scalar one;
// cmd/benchgate uses both anchors to tell code regressions from either kind
// of machine noise.
func BenchmarkCalibrationMem(b *testing.B) {
	memCalOnce.Do(memCalInit)
	var idx uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4096; j++ {
			idx = memCalBuf[idx]
		}
	}
	benchSink += idx
}

func BenchmarkDeviceEndToEnd(b *testing.B) {
	cfg, err := Preset("COS")
	if err != nil {
		b.Fatal(err)
	}
	cfg = cfg.Scaled(0.05).WithIntervals(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg, err := NewMultistageFilter(MultistageConfig{
			Stages: 4, Buckets: 256, Entries: 128,
			Threshold:    uint64(0.001 * cfg.Capacity()),
			Conservative: true, Shield: true, Preserve: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		dev := NewDevice(alg, FiveTuple, NewAdaptor(MultistageAdaptation()))
		src, err := NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n, err := Replay(src, dev)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "packets/op")
	}
}
