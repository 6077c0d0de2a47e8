//go:build !race

// The race detector changes the allocator's behavior, so the allocation
// guards only exist in non-race builds; CI runs them in a dedicated step.

package sampleandhold

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
)

// TestBatchScratchGrowOnly replays batches of wildly mixed sizes through the
// fused ProcessBatch and asserts the hash scratch (batchHash) is grow-only:
// after one batch at the maximum size has grown it, no batch may allocate.
func TestBatchScratchGrowOnly(t *testing.T) {
	s, err := New(Config{Entries: 4096, Threshold: 1 << 20, Oversampling: 4, Seed: 1})
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
	s.ProcessBatch(nil, keys, sizes)
	mixed := []int{maxBatch, 7, 128, 1, 64, 255, 3, maxBatch, 31}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		n := mixed[i%len(mixed)]
		i++
		s.ProcessBatch(nil, keys[:n], sizes[:n])
	})
	if allocs != 0 {
		t.Fatalf("mixed-size ProcessBatch allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestAppendEstimatesZeroAllocs guards the report-arena path: building the
// interval report into caller-owned memory must not allocate once the arena
// and the flow memory's scratch are warm. Oversampling far above the
// threshold forces p = 1, so every key is tracked and every interval's
// report is non-trivial.
func TestAppendEstimatesZeroAllocs(t *testing.T) {
	s, err := New(Config{Entries: 256, Threshold: 1000, Oversampling: 1e9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]flow.Key, 64)
	sizes := make([]uint32, 64)
	for i := range keys {
		keys[i] = flow.Key{Lo: uint64(i + 1)}
		sizes[i] = 2000
	}
	arena := make([]core.Estimate, 0, 256)
	// Warm: one full interval cycle grows the report scratch.
	s.ProcessBatch(nil, keys, sizes)
	arena = s.AppendEstimates(arena[:0])
	allocs := testing.AllocsPerRun(200, func() {
		s.ProcessBatch(nil, keys, sizes)
		arena = s.AppendEstimates(arena[:0])
		if len(arena) != len(keys) {
			t.Fatalf("short report: %d estimates", len(arena))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm interval cycle allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestPerPacketZeroAllocs guards Process, a batch of one over
// struct-owned scratch: neither the scratch nor the kernel's hash buffer
// may escape or grow per call. p is 1/1024 per byte, so a 1000-byte packet
// of an untracked flow is sampled about 60 % of the time: hits, misses and
// inserts are all on the measured path.
func TestPerPacketZeroAllocs(t *testing.T) {
	s, err := New(Config{Entries: 8192, Threshold: 1 << 20, Oversampling: 1 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var k flow.Key
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		k.Lo = uint64(i % 4096)
		i++
		s.Process(k, 1000)
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %.1f allocs/op, must be 0", allocs)
	}
}
