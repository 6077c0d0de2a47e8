package sampleandhold

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/analytic"
	"repro/internal/flow"
)

// quickBatch maps a quick-generated flag to the batch size a property runs
// at: single packets through Process, or batches of 64 through
// ProcessBatch.
func quickBatch(batched bool) int {
	if batched {
		return 64
	}
	return 1
}

// TestQuickLowerBound: without the correction factor, no estimate ever
// exceeds a flow's true traffic, for random workloads and configurations.
func TestQuickLowerBound(t *testing.T) {
	check := func(seed int64, oversampFactor uint8, preserve, earlyRemoval, batched bool) bool {
		cfg := Config{
			Entries:      1 << 18,
			Threshold:    5000,
			Oversampling: 0.5 + float64(oversampFactor%40)/4,
			Preserve:     preserve,
			Seed:         seed,
		}
		if earlyRemoval && preserve {
			cfg.EarlyRemoval = 0.15
		}
		s, err := New(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		// Two intervals, so preserved entries are exercised too.
		for interval := 0; interval < 2; interval++ {
			truth := map[flow.Key]uint64{}
			keys := make([]flow.Key, 4000)
			sizes := make([]uint32, len(keys))
			for i := range keys {
				keys[i] = flow.Key{Lo: uint64(rng.Intn(150))}
				sizes[i] = uint32(rng.Intn(1460) + 40)
				truth[keys[i]] += uint64(sizes[i])
			}
			driveKernel(s, keys, sizes, quickBatch(batched), false)
			for _, e := range s.EndInterval() {
				if e.Bytes > truth[e.Key] {
					return false
				}
				// Exactness claims must be literally true.
				if e.Exact && e.Bytes != truth[e.Key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickMemoryNeverExceedsCapacity: the flow memory respects its bound
// no matter how aggressive the sampling.
func TestQuickMemoryNeverExceedsCapacity(t *testing.T) {
	check := func(seed int64, entries uint8, batched bool) bool {
		cap := 1 + int(entries)%64
		s, err := New(Config{
			Entries:      cap,
			Threshold:    100,
			Oversampling: 100, // p = 1: every packet sampled
			Preserve:     true,
			Seed:         seed,
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		bs := quickBatch(batched)
		keys := make([]flow.Key, bs)
		sizes := make([]uint32, bs)
		for i := 0; i < 2000; i += bs {
			for j := range keys {
				keys[j], sizes[j] = flow.Key{Lo: rng.Uint64()}, 100
			}
			driveKernel(s, keys, sizes, bs, false)
			if s.EntriesUsed() > cap {
				return false
			}
		}
		return len(s.EndInterval()) <= cap
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickHeldFlowsCountedExactlyAfterEntry: once a flow has an entry,
// every subsequent byte is counted — the "hold" half of the algorithm.
func TestQuickHeldFlowsCountedExactlyAfterEntry(t *testing.T) {
	check := func(seed int64, raw []uint16, batched bool) bool {
		if len(raw) == 0 {
			return true
		}
		s, err := New(Config{
			Entries:      8,
			Threshold:    1000,
			Oversampling: 1000, // p = 1: first packet creates the entry
			Seed:         seed,
		})
		if err != nil {
			return false
		}
		var total uint64
		keys := make([]flow.Key, len(raw))
		sizes := make([]uint32, len(raw))
		for i, r := range raw {
			keys[i], sizes[i] = flow.Key{Lo: 9}, uint32(r%1460)+40
			total += uint64(sizes[i])
		}
		driveKernel(s, keys, sizes, quickBatch(batched), false)
		est := s.EndInterval()
		return len(est) == 1 && est[0].Bytes == total
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMissRateMatchesAnalysis checks Section 4.1.1's miss probability on
// the packet kernel: a flow of exactly T bytes goes unsampled with
// probability (1-p)^T ≈ e^-O. Seeded flows of T bytes, split into packets
// and interleaved, run through the kernel at batch sizes 1 and 64; the
// fraction left without an entry must lie inside the 99.9 % binomial
// confidence interval around analytic.SHFalseNegProb(O).
func TestMissRateMatchesAnalysis(t *testing.T) {
	const (
		flows     = 2400
		threshold = 20_000
		pktSize   = 500 // 40 packets per flow
		z999      = 3.29
	)
	for _, o := range []float64{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(o) * 101))
		var keys []flow.Key
		var sizes []uint32
		for f := 0; f < flows; f++ {
			for b := 0; b < threshold; b += pktSize {
				keys = append(keys, flow.Key{Hi: 5, Lo: uint64(f)})
				sizes = append(sizes, pktSize)
			}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		want := analytic.SHFalseNegProb(o)
		half := z999 * math.Sqrt(want*(1-want)/flows)
		for _, bs := range []int{1, 64} {
			s, err := New(Config{Entries: flows, Threshold: threshold, Oversampling: o, Seed: int64(o) + 7})
			if err != nil {
				t.Fatal(err)
			}
			driveKernel(s, keys, sizes, bs, false)
			miss := float64(flows-len(s.EndInterval())) / flows
			t.Logf("O=%g batch=%d: miss rate %.4f, analysis %.4f ± %.4f", o, bs, miss, want, half)
			if math.Abs(miss-want) > half {
				t.Errorf("O=%g batch=%d: miss rate %.4f outside the 99.9%% interval %.4f ± %.4f", o, bs, miss, want, half)
			}
		}
	}
}
