//go:build !race

// The race detector changes the allocator's behavior, so the allocation
// guards only exist in non-race builds; CI runs them in a dedicated step.

package pipeline

import (
	"testing"

	"repro/internal/flow"
)

// TestSingleLaneZeroAllocs asserts the single-lane steady-state packet path
// stays allocation-free: keys are appended straight into the lane's
// recycled batch buffer and handed over through the SPSC ring.
func TestSingleLaneZeroAllocs(t *testing.T) {
	p, err := New(Config{
		Shards: 1, QueueDepth: 256, BatchSize: 64,
		NewAlgorithm: shConfig(4096),
		Definition:   flow.FiveTuple{}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pkts := make([]flow.Packet, 128)
	for i := range pkts {
		pkts[i] = flow.Packet{Size: 1000, SrcIP: uint32(i * 31), DstIP: 2, Proto: 6}
	}
	for i := 0; i < 50; i++ {
		p.PacketBatch(pkts)
	}
	allocs := testing.AllocsPerRun(500, func() {
		p.PacketBatch(pkts)
	})
	if allocs != 0 {
		t.Fatalf("single-lane PacketBatch allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestMixedBurstSizesZeroAllocs replays bursts of mixed sizes through a
// 4-shard producer and asserts the steady-state loop stays allocation-free:
// the burst is partitioned into per-shard sub-batches (grow-only scratch),
// the per-packet key hash is forwarded with each batch (shConfig is
// sample-and-hold, whose kernel consumes forwarded hashes), and per-lane
// batch buffers are fixed-capacity and recycled through the free rings, so
// neither varying burst sizes nor batch handover may allocate.
// (AllocsPerRun reads global malloc counters, so lane worker goroutines
// draining the queues are covered too.)
func TestMixedBurstSizesZeroAllocs(t *testing.T) {
	p, err := New(Config{
		Shards: 4, QueueDepth: 256, BatchSize: 64,
		NewAlgorithm: shConfig(4096),
		Definition:   flow.FiveTuple{}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const maxBurst = 200
	pkts := make([]flow.Packet, maxBurst)
	for i := range pkts {
		pkts[i] = flow.Packet{Size: 1000, SrcIP: uint32(i * 31), DstIP: 2, Proto: 6}
	}
	// Warm-up: circulate every lane's buffers through the free lists once.
	for i := 0; i < 50; i++ {
		p.PacketBatch(pkts)
	}
	mixed := []int{maxBurst, 3, 150, 1, 64, 199, 7, maxBurst, 33}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		n := mixed[i%len(mixed)]
		i++
		p.PacketBatch(pkts[:n])
	})
	if allocs != 0 {
		t.Fatalf("mixed-size PacketBatch allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestDiscardReportsIntervalZeroAllocs asserts the strongest report-path
// guarantee: with DiscardReports set and no OnReport hook, closing an
// interval at 4 shards is completely allocation-free — lane replies land in
// per-lane arenas, the gather list and shard counts are reusable scratch,
// and the merged estimates build into the merge arena.
func TestDiscardReportsIntervalZeroAllocs(t *testing.T) {
	p, err := New(Config{
		Shards: 4, QueueDepth: 64, BatchSize: 64,
		NewAlgorithm: shConfig(4096),
		Definition:   flow.FiveTuple{}, Seed: 1,
		DiscardReports: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pkts := make([]flow.Packet, 128)
	for i := range pkts {
		pkts[i] = flow.Packet{Size: 1000, SrcIP: uint32(i * 31), DstIP: 2, Proto: 6}
	}
	p.PacketBatch(pkts)
	p.EndInterval(0)
	interval := 1
	allocs := testing.AllocsPerRun(100, func() {
		p.PacketBatch(pkts)
		p.EndInterval(interval)
		interval++
	})
	if allocs != 0 {
		t.Fatalf("discard-reports interval path allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestReportPathArenaAllocs bounds the per-interval allocation budget of the
// report path. Lane-side interval closing is allocation-free once warm: each
// lane builds its reply into its persistent report arena (core.AppendEstimates)
// and answers on its persistent reply channel. What remains on the producer
// side is the retained output itself — the merged estimate slice, the
// per-shard count slice, the sort's swapper closures and the amortized growth
// of the report history — a small constant independent of lane count. The
// budget of 8 would be blown immediately by a regression to per-interval
// reply channels or per-interval lane report slices (that path cost
// 2×lanes+1 extra allocations every interval).
func TestReportPathArenaAllocs(t *testing.T) {
	p, err := New(Config{
		Shards: 4, QueueDepth: 64, BatchSize: 64,
		NewAlgorithm: shConfig(4096),
		Definition:   flow.FiveTuple{}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pkts := make([]flow.Packet, 128)
	for i := range pkts {
		pkts[i] = flow.Packet{Size: 1000, SrcIP: uint32(i * 31), DstIP: 2, Proto: 6}
	}
	// Warm: circulate buffers and grow every lane's arena once.
	p.PacketBatch(pkts)
	p.EndInterval(0)
	interval := 1
	allocs := testing.AllocsPerRun(100, func() {
		p.PacketBatch(pkts)
		p.EndInterval(interval)
		interval++
	})
	if allocs > 8 {
		t.Fatalf("interval report path allocates %.1f allocs/op, budget is 8", allocs)
	}
}
