package multistage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flow"
)

// workload derives a random packet stream from quick-generated data: flow
// IDs concentrate on a small id space so collisions and elephants occur.
type workload struct {
	Seed     int64
	Packets  int
	FlowBits uint8
}

func (w workload) generate() ([]flow.Key, []uint32) {
	rng := rand.New(rand.NewSource(w.Seed))
	n := 1000 + int(uint(w.Packets)%9000)
	mask := uint64(1)<<(3+w.FlowBits%7) - 1 // 8..511 distinct flows
	keys := make([]flow.Key, n)
	sizes := make([]uint32, n)
	for i := range keys {
		keys[i] = flow.Key{Lo: rng.Uint64() & mask}
		sizes[i] = uint32(rng.Intn(1460) + 40)
	}
	return keys, sizes
}

// quickBatch maps a quick-generated flag to the batch size a property runs
// at: single packets through Process, or batches of 64 through
// ProcessBatch.
func quickBatch(batched bool) int {
	if batched {
		return 64
	}
	return 1
}

// truth sums each flow's bytes.
func truth(keys []flow.Key, sizes []uint32) map[flow.Key]uint64 {
	out := map[flow.Key]uint64{}
	for i, k := range keys {
		out[k] += uint64(sizes[i])
	}
	return out
}

// TestQuickNoFalseNegatives drives the central guarantee through
// testing/quick: for random workloads, random (small) filter shapes and
// both update rules, every flow at or above the threshold is reported.
func TestQuickNoFalseNegatives(t *testing.T) {
	check := func(w workload, stages, buckets uint8, conservative, serial, shield, batched bool) bool {
		cfg := Config{
			Stages:       1 + int(stages%4),
			Buckets:      8 + int(buckets)%120,
			Entries:      1 << 20,
			Threshold:    30000,
			Conservative: conservative,
			Serial:       serial,
			Shield:       shield,
			Seed:         w.Seed + 1,
		}
		f, err := New(cfg)
		if err != nil {
			return false
		}
		keys, sizes := w.generate()
		driveKernel(f, keys, sizes, quickBatch(batched), false)
		reported := map[flow.Key]bool{}
		for _, e := range f.EndInterval() {
			reported[e.Key] = true
		}
		for k, bytes := range truth(keys, sizes) {
			if bytes >= cfg.Threshold && !reported[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickEstimatesLowerBound: reported bytes never exceed the truth, for
// any variant and workload.
func TestQuickEstimatesLowerBound(t *testing.T) {
	check := func(w workload, conservative, serial, batched bool) bool {
		f, err := New(Config{
			Stages:       3,
			Buckets:      64,
			Entries:      1 << 20,
			Threshold:    20000,
			Conservative: conservative,
			Serial:       serial,
			Seed:         w.Seed,
		})
		if err != nil {
			return false
		}
		keys, sizes := w.generate()
		driveKernel(f, keys, sizes, quickBatch(batched), false)
		sums := truth(keys, sizes)
		for _, e := range f.EndInterval() {
			if e.Bytes > sums[e.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCountersMonotone: stage counters never decrease within an
// interval, under either update rule.
func TestQuickCountersMonotone(t *testing.T) {
	check := func(w workload, conservative, batched bool) bool {
		f, err := New(Config{
			Stages:       2,
			Buckets:      32,
			Entries:      1 << 20,
			Threshold:    1 << 40, // never promote: isolate counter math
			Conservative: conservative,
			Seed:         w.Seed,
		})
		if err != nil {
			return false
		}
		prev := make([][]uint64, 2)
		for i := range prev {
			prev[i] = make([]uint64, 32)
		}
		keys, sizes := w.generate()
		bs := quickBatch(batched)
		for i := 0; i < len(keys); i += bs {
			end := min(i+bs, len(keys))
			driveKernel(f, keys[i:end], sizes[i:end], bs, false)
			for st := 0; st < 2; st++ {
				for b := 0; b < 32; b++ {
					v := f.CounterValue(st, b)
					if v < prev[st][b] {
						return false
					}
					prev[st][b] = v
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestQuickConservativeDominatedByClassic: under identical seeds and
// workloads, conservative counters never exceed classic ones.
func TestQuickConservativeDominatedByClassic(t *testing.T) {
	check := func(w workload, batched bool) bool {
		mk := func(conservative bool) *Filter {
			f, err := New(Config{
				Stages: 3, Buckets: 64, Entries: 1 << 20,
				Threshold: 1 << 40, Conservative: conservative, Seed: 12345,
			})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		classic, cons := mk(false), mk(true)
		keys, sizes := w.generate()
		driveKernel(classic, keys, sizes, quickBatch(batched), false)
		driveKernel(cons, keys, sizes, quickBatch(batched), false)
		for st := 0; st < 3; st++ {
			for b := 0; b < 64; b++ {
				if cons.CounterValue(st, b) > classic.CounterValue(st, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
