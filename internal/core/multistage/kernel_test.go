package multistage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core/flowmem"
	"repro/internal/flow"
	"repro/internal/memmodel"
)

// kernelWorkload synthesizes a deterministic Zipf-ish stream: a few heavy
// flows that cross the threshold (exercising promotion and preservation)
// over a long tail that stays in the filter stages. The interval length
// 4097 is coprime to every batch size the grid uses, so every run ends on
// a partial tile and a partial batch.
func kernelWorkload(intervals, perInterval int) ([][]flow.Key, [][]uint32) {
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.25, 1, 20000)
	keys := make([][]flow.Key, intervals)
	sizes := make([][]uint32, intervals)
	for iv := range keys {
		keys[iv] = make([]flow.Key, perInterval)
		sizes[iv] = make([]uint32, perInterval)
		for i := range keys[iv] {
			keys[iv][i] = flow.Key{Hi: 7, Lo: zipf.Uint64()}
			sizes[iv][i] = 40 + uint32(rng.Intn(1460))
		}
	}
	return keys, sizes
}

// TestKernelMatchesReference drives the packet kernel for every hash
// family, batch sizes {1, 7, 64, 1024} and entry preservation, with and
// without caller-supplied flowmem hashes (the sharded pipeline's forwarded
// shard hash; batch size 1 without hashes goes through Process), and
// checks every interval's counters and report against refFilter. The
// memory accounting totals must not depend on the batch size or the hash
// source either.
func TestKernelMatchesReference(t *testing.T) {
	keys, sizes := kernelWorkload(3, 4097)
	for _, hash := range []string{"tabulation", "multiplyshift", "doublehash"} {
		for _, preserve := range []bool{false, true} {
			cfg := Config{
				Stages: 4, Buckets: 512, Entries: 256, Threshold: 200_000,
				Conservative: true, Shield: true, Preserve: preserve,
				Hash: hash, Seed: 9,
			}
			var mem0 *memmodel.Counter
			for _, bs := range []int{1, 7, 64, 1024} {
				for _, supplied := range []bool{false, true} {
					label := fmt.Sprintf("%s/preserve=%v/batch=%d/hashes=%v", hash, preserve, bs, supplied)
					t.Run(label, func(t *testing.T) {
						f, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						ref := newRefFilter(cfg, f)
						reported := 0
						for iv := range keys {
							k, s := keys[iv], sizes[iv]
							for i := range k {
								ref.process(k[i], s[i])
							}
							driveKernel(f, k, s, bs, supplied)
							reported += len(requireMatchesRef(t, f, ref, iv))
						}
						if reported == 0 {
							t.Fatal("no flow was promoted: the grid compares empty reports")
						}
						if mem0 == nil {
							mem0 = f.Mem()
						} else if *f.Mem() != *mem0 {
							t.Fatalf("memory accounting %+v, batch=1 run %+v", *f.Mem(), *mem0)
						}
					})
				}
			}
		}
	}
}

// driveKernel feeds one interval to f in batches of bs, passing
// flowmem.Hash of every key when supplied; a batch of one without hashes
// goes through Process.
func driveKernel(f *Filter, keys []flow.Key, sizes []uint32, bs int, supplied bool) {
	var hashes []uint64
	if supplied {
		hashes = make([]uint64, len(keys))
		for i, k := range keys {
			hashes[i] = flowmem.Hash(k)
		}
	}
	for i := 0; i < len(keys); i += bs {
		end := min(i+bs, len(keys))
		switch {
		case supplied:
			f.ProcessBatch(hashes[i:end], keys[i:end], sizes[i:end])
		case bs == 1:
			f.Process(keys[i], sizes[i])
		default:
			f.ProcessBatch(nil, keys[i:end], sizes[i:end])
		}
	}
}
