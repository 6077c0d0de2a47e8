package pipeline

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/trace"
)

func benchCfg() Config {
	return Config{
		Shards: 1, QueueDepth: 256, BatchSize: 64,
		NewAlgorithm: shConfig(4096),
		Definition:   flow.FiveTuple{}, Seed: 1,
	}
}

// benchPerBatch times c's batched producer loop; ns/op is per 64-packet
// burst.
func benchPerBatch(b *testing.B, c trace.BatchConsumer) {
	pkts := make([]flow.Packet, 64)
	for i := range pkts {
		pkts[i] = flow.Packet{Size: 1000, SrcIP: uint32(i * 31), DstIP: 2, Proto: 6}
	}
	for i := 0; i < 50; i++ {
		c.PacketBatch(pkts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkts[0].SrcIP = uint32(i % 10000)
		c.PacketBatch(pkts)
	}
	b.StopTimer()
	c.EndInterval(0)
}

// BenchmarkPipelinePerBatch prices the single-lane pipeline's batched
// producer loop, directly comparable to the root package's
// BenchmarkPipelineBatchedSteadyState path.
func BenchmarkPipelinePerBatch(b *testing.B) {
	p, err := New(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	benchPerBatch(b, p)
}

// BenchmarkABPerBatch prices racing two single-lane pipelines on the same
// stream: the A/B producer cost is ideally 2× the single-pipeline cost,
// nothing more.
func BenchmarkABPerBatch(b *testing.B) {
	ab, err := NewAB(benchCfg(), benchCfg(), 10)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ab.Close)
	benchPerBatch(b, ab)
}
