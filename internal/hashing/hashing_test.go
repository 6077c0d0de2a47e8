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

// TestDeriverMatchesBuckets: the single-base-hash derivation must agree
// exactly with calling Bucket on every derived function — the filter's fast
// path and slow path may never disagree on where a key lands.
func TestDeriverMatchesBuckets(t *testing.T) {
	family := NewDoubleHash(23)
	funcs := make([]Func, 4)
	for i := range funcs {
		funcs[i] = family.New(4096)
	}
	d := DeriverFor(funcs)
	if d == nil {
		t.Fatal("DeriverFor returned nil for consecutive double-hash functions")
	}
	out := make([]uint32, len(funcs))
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 10000; i++ {
		k := flow.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		d.DeriveBase(k, out)
		for j, fn := range funcs {
			if got := fn.Bucket(k); got != out[j] {
				t.Fatalf("stage %d: DeriveBase gave %d, Bucket gave %d", j, out[j], got)
			}
		}
	}
}

// TestDeriverForRejectsIneligible: families without a shared base (or
// mismatched function sets) must fall back to per-function hashing.
func TestDeriverForRejectsIneligible(t *testing.T) {
	tab := NewTabulation(1)
	if DeriverFor([]Func{tab.New(64), tab.New(64)}) != nil {
		t.Error("DeriverFor accepted tabulation functions")
	}
	if DeriverFor(nil) != nil {
		t.Error("DeriverFor accepted an empty set")
	}
	// Functions from two different double-hash family instances share no
	// base hash.
	f1 := NewDoubleHash(1).New(64)
	f2 := NewDoubleHash(2).New(64)
	if DeriverFor([]Func{f1, f2}) != nil {
		t.Error("DeriverFor accepted functions from different families")
	}
	// Out-of-order draws break the i0+j stage indexing.
	fam := NewDoubleHash(3)
	a, b := fam.New(64), fam.New(64)
	if DeriverFor([]Func{b, a}) != nil {
		t.Error("DeriverFor accepted out-of-order functions")
	}
	// Mismatched bucket counts cannot share a derivation.
	fam2 := NewDoubleHash(4)
	if DeriverFor([]Func{fam2.New(64), fam2.New(128)}) != nil {
		t.Error("DeriverFor accepted mismatched bucket counts")
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

// BenchmarkDoubleHashDerive4 measures deriving all four stage buckets of a
// packet from one base hash — the per-packet hashing cost of a d=4 filter on
// the double-hash fast path (compare 4× BenchmarkTabulation).
func BenchmarkDoubleHashDerive4(b *testing.B) {
	fam := NewDoubleHash(1)
	funcs := make([]Func, 4)
	for i := range funcs {
		funcs[i] = fam.New(4096)
	}
	d := DeriverFor(funcs)
	if d == nil {
		b.Fatal("no deriver")
	}
	out := make([]uint32, 4)
	k := flow.Key{Hi: 0x0a00000100000001, Lo: 0x1234}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Lo++
		d.DeriveBase(k, out)
	}
}

// TestUnrolledTabulationMatchesReference pins the unrolled tabulation hash
// (16 independent table loads) to an independent rolling-loop
// reimplementation of the textbook algorithm: shift a byte off each key
// word per iteration and XOR the indexed table words. Bit-identical output
// means the unroll is purely a scheduling change — every downstream
// consumer (filter buckets, FP rates, the d∈{2,4} ablation) is untouched.
func TestUnrolledTabulationMatchesReference(t *testing.T) {
	f := NewTabulation(99).New(1 << 20).(*tabulationFunc)
	ref := func(k flow.Key) uint64 {
		var h uint64
		hi, lo := k.Hi, k.Lo
		for i := 0; i < 8; i++ {
			h ^= f.tables[i][byte(hi)]
			h ^= f.tables[8+i][byte(lo)]
			hi >>= 8
			lo >>= 8
		}
		return h
	}
	check := func(hi, lo uint64) bool {
		k := flow.Key{Hi: hi, Lo: lo}
		return f.hash64(k) == ref(k)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	// Edge keys the random sample may miss.
	for _, k := range []flow.Key{{}, {Hi: ^uint64(0), Lo: ^uint64(0)}, {Hi: 1}, {Lo: 1 << 63}} {
		if f.hash64(k) != ref(k) {
			t.Errorf("key %+v: unrolled %#x != reference %#x", k, f.hash64(k), ref(k))
		}
	}
}

// TestBucketTileMatchesBucket pins every TileHasher implementation to its
// own scalar Bucket across strides and bases: the tile path is the fused
// kernel's hash phase, so a divergence would silently corrupt filter
// counters.
func TestBucketTileMatchesBucket(t *testing.T) {
	for _, fam := range families {
		f := fam.mk(3).New(977)
		th, ok := f.(TileHasher)
		if !ok {
			continue // doublehash funcs derive via Deriver, not BucketTile
		}
		rng := rand.New(rand.NewSource(11))
		keys := make([]flow.Key, 33)
		for i := range keys {
			keys[i] = flow.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		}
		for _, stride := range []int{1, 2, 4} {
			for _, add := range []uint32{0, 977, 5 * 977} {
				dst := make([]uint32, len(keys)*stride)
				th.BucketTile(keys, dst, stride, add)
				for j, k := range keys {
					if want := add + f.Bucket(k); dst[j*stride] != want {
						t.Errorf("%s stride=%d add=%d key %d: tile %d != scalar %d",
							fam.name, stride, add, j, dst[j*stride], want)
					}
				}
			}
		}
	}
}
