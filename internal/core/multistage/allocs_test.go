//go:build !race

// The race detector changes the allocator's behavior, so the allocation
// guards only exist in non-race builds; CI runs them in a dedicated step.

package multistage

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
)

// TestBatchScratchGrowOnly replays batches of wildly mixed sizes through
// ProcessBatch and asserts the batch scratch (probe hashes, lookup results,
// counter keys and offsets) is grow-only: after one batch at the maximum
// size has grown it, no batch — large, tiny, or in between — may allocate.
// A shrink-and-reallocate regression would show up as steady allocations on
// every size change.
func TestBatchScratchGrowOnly(t *testing.T) {
	for _, hash := range []string{"tabulation", "doublehash"} {
		t.Run(hash, func(t *testing.T) {
			f, err := New(Config{
				Stages: 4, Buckets: 1024, Entries: 512, Threshold: 1 << 20,
				Conservative: true, Shield: true, Hash: hash, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			const maxBatch = 256
			keys := make([]flow.Key, maxBatch)
			sizes := make([]uint32, maxBatch)
			for i := range keys {
				keys[i] = flow.Key{Lo: uint64(i * 7)}
				sizes[i] = 1000
			}
			// Warm the scratch with the largest batch once.
			f.ProcessBatch(nil, keys, sizes)
			mixed := []int{maxBatch, 7, 128, 1, 64, 255, 3, maxBatch, 31}
			i := 0
			allocs := testing.AllocsPerRun(500, func() {
				n := mixed[i%len(mixed)]
				i++
				f.ProcessBatch(nil, keys[:n], sizes[:n])
			})
			if allocs != 0 {
				t.Fatalf("mixed-size ProcessBatch allocates %.1f allocs/op, must be 0", allocs)
			}
		})
	}
}

// TestAppendEstimatesZeroAllocs guards the report-arena path: building the
// interval report into caller-owned memory must not allocate once the arena
// and the flow memory's scratch are warm. Threshold 1 promotes every flow on
// its first packet, so each interval's report is non-trivial.
func TestAppendEstimatesZeroAllocs(t *testing.T) {
	f, err := New(Config{
		Stages: 4, Buckets: 1024, Entries: 512, Threshold: 1,
		Conservative: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]flow.Key, 64)
	sizes := make([]uint32, 64)
	for i := range keys {
		keys[i] = flow.Key{Lo: uint64(i + 1)}
		sizes[i] = 1000
	}
	arena := make([]core.Estimate, 0, 256)
	// Warm: one full interval cycle grows the report scratch.
	f.ProcessBatch(nil, keys, sizes)
	arena = f.AppendEstimates(arena[:0])
	allocs := testing.AllocsPerRun(200, func() {
		f.ProcessBatch(nil, keys, sizes)
		arena = f.AppendEstimates(arena[:0])
		if len(arena) != len(keys) {
			t.Fatalf("short report: %d estimates", len(arena))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm interval cycle allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestPerPacketZeroAllocs guards the unbatched Process path, which shares
// the flat counter array and per-packet offset scratch with the batched one.
func TestPerPacketZeroAllocs(t *testing.T) {
	f, err := New(Config{
		Stages: 4, Buckets: 1024, Entries: 512, Threshold: 1 << 20,
		Conservative: true, Shield: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var k flow.Key
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		k.Lo = uint64(i % 4096)
		i++
		f.Process(k, 1000)
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %.1f allocs/op, must be 0", allocs)
	}
}
