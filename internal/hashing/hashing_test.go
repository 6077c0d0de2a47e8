package hashing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flow"
)

var families = []struct {
	name string
	mk   func(seed int64) Family
}{
	{"tabulation", NewTabulation},
	{"multiplyshift", NewMultiplyShift},
	{"doublehash", NewDoubleHash},
}

func TestBucketInRange(t *testing.T) {
	for _, fam := range families {
		f := fam.mk(1).New(1000)
		check := func(hi, lo uint64) bool {
			b := f.Bucket(flow.Key{Hi: hi, Lo: lo})
			return b < f.Buckets()
		}
		if err := quick.Check(check, nil); err != nil {
			t.Errorf("%s: %v", fam.name, err)
		}
	}
}

func TestDeterministic(t *testing.T) {
	for _, fam := range families {
		f1 := fam.mk(42).New(4096)
		f2 := fam.mk(42).New(4096)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			k := flow.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
			if f1.Bucket(k) != f2.Bucket(k) {
				t.Fatalf("%s: same seed produced different functions", fam.name)
			}
		}
	}
}

func TestIndependentFunctionsDiffer(t *testing.T) {
	// Two functions drawn from the same family must disagree on most keys;
	// identical functions would defeat the multistage filter's stages.
	for _, fam := range families {
		family := fam.mk(3)
		f1, f2 := family.New(1<<20), family.New(1<<20)
		rng := rand.New(rand.NewSource(9))
		same := 0
		const n = 10000
		for i := 0; i < n; i++ {
			k := flow.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
			if f1.Bucket(k) == f2.Bucket(k) {
				same++
			}
		}
		if same > n/100 {
			t.Errorf("%s: %d/%d collisions between supposedly independent functions", fam.name, same, n)
		}
	}
}

// TestUniformity checks via a chi-squared statistic that keys spread evenly
// over buckets. With b=64 buckets and n=64000 keys the chi-squared statistic
// has 63 degrees of freedom; values above 120 are astronomically unlikely
// for a uniform hash.
func TestUniformity(t *testing.T) {
	for _, fam := range families {
		const buckets = 64
		const n = 64000
		f := fam.mk(11).New(buckets)
		counts := make([]int, buckets)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < n; i++ {
			counts[f.Bucket(flow.Key{Hi: rng.Uint64(), Lo: rng.Uint64()})]++
		}
		expected := float64(n) / buckets
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		if chi2 > 120 {
			t.Errorf("%s: chi-squared %.1f too high for uniform hashing", fam.name, chi2)
		}
	}
}

// TestLowEntropyKeys exercises the structured keys real traffic produces
// (sequential IPs, tiny AS numbers) where weak hashes cluster.
func TestLowEntropyKeys(t *testing.T) {
	for _, fam := range families {
		const buckets = 128
		const n = 12800
		f := fam.mk(17).New(buckets)
		counts := make([]int, buckets)
		for i := 0; i < n; i++ {
			// AS-pair style keys: only the low 32 bits vary, and slowly.
			counts[f.Bucket(flow.Key{Lo: uint64(i)})]++
		}
		expected := float64(n) / buckets
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// 127 degrees of freedom; allow generous slack but catch clustering.
		if chi2 > 220 {
			t.Errorf("%s: chi-squared %.1f on low-entropy keys", fam.name, chi2)
		}
	}
}

func TestReduceCoversRange(t *testing.T) {
	// The high and low ends of the hash space must map to the first and last
	// buckets respectively.
	if got := reduce(0, 10); got != 0 {
		t.Errorf("reduce(0) = %d", got)
	}
	if got := reduce(math.MaxUint64, 10); got != 9 {
		t.Errorf("reduce(max) = %d", got)
	}
}

// TestDoubleHashStagesDistinct: with h2 forced odd, two derived stages may
// collide on a key no more often than chance.
func TestDoubleHashStagesDistinct(t *testing.T) {
	fam := NewDoubleHash(31)
	f1, f2 := fam.New(1<<20), fam.New(1<<20)
	rng := rand.New(rand.NewSource(37))
	same := 0
	const n = 10000
	for i := 0; i < n; i++ {
		k := flow.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		if f1.Bucket(k) == f2.Bucket(k) {
			same++
		}
	}
	if same > n/100 {
		t.Errorf("%d/%d stage collisions, want ~n/2^20", same, n)
	}
}

func TestFamilyByName(t *testing.T) {
	for _, name := range []string{"tabulation", "multiplyshift", "doublehash"} {
		if FamilyByName(name, 1) == nil {
			t.Errorf("FamilyByName(%q) = nil", name)
		}
	}
	if FamilyByName("bogus", 1) != nil {
		t.Error("FamilyByName of unknown name should be nil")
	}
}

func TestZeroBucketsPanics(t *testing.T) {
	for _, fam := range families {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New(0) did not panic", fam.name)
				}
			}()
			fam.mk(1).New(0)
		}()
	}
}

func BenchmarkTabulation(b *testing.B) {
	f := NewTabulation(1).New(4096)
	k := flow.Key{Hi: 0x0a00000100000001, Lo: 0x1234}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Lo++
		_ = f.Bucket(k)
	}
}

func BenchmarkMultiplyShift(b *testing.B) {
	f := NewMultiplyShift(1).New(4096)
	k := flow.Key{Hi: 0x0a00000100000001, Lo: 0x1234}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Lo++
		_ = f.Bucket(k)
	}
}

// BenchmarkStageOffsets measures a d=4 filter's per-packet hashing: the
// flat counter offsets of all four stages for a 32-key tile, the filter
// kernel's hash phase, per family.
func BenchmarkStageOffsets(b *testing.B) {
	keys := make([]flow.Key, 32)
	dst := make([]uint32, len(keys)*4)
	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			s := fam.mk(1).Stages(4, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range keys {
					keys[j] = flow.Key{Hi: 0x0a00000100000001, Lo: uint64(i*len(keys) + j)}
				}
				s.Offsets(keys, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/pkt")
		})
	}
}

// TestUnrolledTabulationMatchesReference pins the unrolled tabulation hash
// (16 independent table loads over 32-bit words) to an independent
// rolling-loop reimplementation of the textbook algorithm over the family's
// 64-bit draws: shift a byte off each key word per iteration, XOR the
// indexed words, and keep the high half — the 32 bits reduce reads.
// Bit-identical output means neither the unroll nor the narrowed table
// words change where any key lands: every downstream consumer (filter
// buckets, FP rates, the d∈{2,4} ablation) is untouched.
func TestUnrolledTabulationMatchesReference(t *testing.T) {
	f := NewTabulation(99).New(1 << 20).(*tabulationFunc)
	var words [16][256]uint64
	rng := rand.New(rand.NewSource(99))
	for i := range words {
		for j := range words[i] {
			words[i][j] = rng.Uint64()
		}
	}
	ref := func(k flow.Key) uint32 {
		var h uint64
		hi, lo := k.Hi, k.Lo
		for i := 0; i < 8; i++ {
			h ^= words[i][byte(hi)]
			h ^= words[8+i][byte(lo)]
			hi >>= 8
			lo >>= 8
		}
		return uint32(h >> 32)
	}
	check := func(hi, lo uint64) bool {
		k := flow.Key{Hi: hi, Lo: lo}
		return tabulate(&f.tables, k) == ref(k)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	// Edge keys the random sample may miss.
	for _, k := range []flow.Key{{}, {Hi: ^uint64(0), Lo: ^uint64(0)}, {Hi: 1}, {Lo: 1 << 63}} {
		if got := tabulate(&f.tables, k); got != ref(k) {
			t.Errorf("key %+v: unrolled %#x != reference %#x", k, got, ref(k))
		}
	}
}

// TestStageOffsetsMatchBucket pins every family's StageHasher to the
// per-stage scalar functions the same seed's New calls return, for depths
// 1–5 (odd ones end on tabulation's lone stage) and bucket ranges from 1 to
// 2^20: Offsets is the filter kernel's hash phase and Bucket its BucketOf,
// so a divergence would silently move filter counters. One New draw before
// Stages checks that a StageHasher continues the family's sequence.
func TestStageOffsetsMatchBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]flow.Key, 37)
	for i := range keys {
		keys[i] = flow.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	keys = append(keys, flow.Key{}, flow.Key{Hi: ^uint64(0), Lo: ^uint64(0)})
	const sentinel = ^uint32(0)
	for _, fam := range families {
		for d := 1; d <= 5; d++ {
			for _, b := range []uint32{1, 977, 3114, 1 << 20} {
				scalar := fam.mk(3)
				scalar.New(b)
				funcs := make([]Func, d)
				for i := range funcs {
					funcs[i] = scalar.New(b)
				}
				family := fam.mk(3)
				family.New(b)
				s := family.Stages(d, b)
				dst := make([]uint32, len(keys)*d+1)
				dst[len(dst)-1] = sentinel
				s.Offsets(keys, dst[:len(keys)*d])
				if dst[len(dst)-1] != sentinel {
					t.Fatalf("%s d=%d b=%d: Offsets wrote past len(keys)·d", fam.name, d, b)
				}
				for j, k := range keys {
					for i, fn := range funcs {
						want := fn.Bucket(k)
						if got := dst[j*d+i]; got != uint32(i)*b+want {
							t.Fatalf("%s d=%d b=%d key %d stage %d: offset %d, want %d",
								fam.name, d, b, j, i, got, uint32(i)*b+want)
						}
						if got := s.Bucket(i, k); got != want {
							t.Fatalf("%s d=%d b=%d key %d stage %d: Bucket %d, want %d",
								fam.name, d, b, j, i, got, want)
						}
					}
				}
			}
		}
	}
}
