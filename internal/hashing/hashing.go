// Package hashing provides the independent hash functions required by the
// multistage filters of the paper (Section 3.2). Each filter stage hashes
// the flow ID with a hash function chosen independently of the other stages;
// Lemma 1 of the paper assumes this independence.
//
// Three families are implemented:
//
//   - tabulation hashing (3-independent, and in practice far stronger), the
//     default used by the filters,
//   - multiply-shift hashing (2-independent, cheaper), kept for the hash
//     ablation benchmarks, and
//   - double hashing (Kirsch–Mitzenmacher): every function drawn from one
//     family instance derives its bucket as h1(k) + i·h2(k) from a single
//     shared base hash, so a d-stage filter needs ONE hash computation per
//     packet instead of d. The derived functions are not independent — the
//     accuracy ablation quantifies what that trade costs — but Kirsch and
//     Mitzenmacher show the scheme preserves sketch error bounds
//     asymptotically.
//
// All families hash the 128-bit flow key of internal/flow to a 64-bit value;
// Func values additionally fold that value onto a bucket range.
package hashing

import (
	"math/rand"

	"repro/internal/flow"
)

// Func hashes a flow key to a bucket index in [0, Buckets).
type Func interface {
	// Bucket returns the bucket index for the key.
	Bucket(k flow.Key) uint32
	// Buckets returns the size of the bucket range.
	Buckets() uint32
}

// Family produces independent hash functions on demand. A Family is seeded;
// the same seed reproduces the same sequence of functions, which the
// experiment harness relies on for reproducible runs.
type Family interface {
	// New returns the next independent hash function with the given number
	// of buckets (must be > 0).
	New(buckets uint32) Func
}

// Tabulation implements tabulation hashing: the 16 bytes of the key index 16
// random tables of 64-bit words which are XORed together. Lookup tables make
// it both fast and strongly universal.
type Tabulation struct {
	tables [16][256]uint64
}

// NewTabulation creates a tabulation hash function family seeded with seed.
func NewTabulation(seed int64) Family {
	return &tabulationFamily{rng: rand.New(rand.NewSource(seed))}
}

type tabulationFamily struct {
	rng *rand.Rand
}

func (f *tabulationFamily) New(buckets uint32) Func {
	if buckets == 0 {
		panic("hashing: zero buckets")
	}
	t := &tabulationFunc{buckets: buckets}
	for i := range t.tables {
		for j := range t.tables[i] {
			t.tables[i][j] = f.rng.Uint64()
		}
	}
	return t
}

type tabulationFunc struct {
	tables  [16][256]uint64
	buckets uint32
}

// hash64 XORs the 16 table words a key indexes. The byte extraction is
// fully unrolled with independent shift amounts: the rolling hi >>= 8 form
// chains every load's address computation behind the previous shift,
// while this form gives the CPU 16 independent loads to issue at once —
// the table probes are the family's whole cost, so the ILP is the speedup.
func (t *tabulationFunc) hash64(k flow.Key) uint64 {
	hi, lo := k.Hi, k.Lo
	h := t.tables[0][byte(hi)] ^ t.tables[8][byte(lo)]
	h ^= t.tables[1][byte(hi>>8)] ^ t.tables[9][byte(lo>>8)]
	h ^= t.tables[2][byte(hi>>16)] ^ t.tables[10][byte(lo>>16)]
	h ^= t.tables[3][byte(hi>>24)] ^ t.tables[11][byte(lo>>24)]
	h ^= t.tables[4][byte(hi>>32)] ^ t.tables[12][byte(lo>>32)]
	h ^= t.tables[5][byte(hi>>40)] ^ t.tables[13][byte(lo>>40)]
	h ^= t.tables[6][byte(hi>>48)] ^ t.tables[14][byte(lo>>48)]
	h ^= t.tables[7][byte(hi>>56)] ^ t.tables[15][byte(lo>>56)]
	return h
}

func (t *tabulationFunc) Bucket(k flow.Key) uint32 {
	return reduce(t.hash64(k), t.buckets)
}

func (t *tabulationFunc) Buckets() uint32 { return t.buckets }

// BucketTile implements TileHasher: one call derives a whole tile's
// buckets, keeping the function's 16 tables (32 KiB) hot across the tile
// instead of re-touching them per packet interleaved with other work.
func (t *tabulationFunc) BucketTile(keys []flow.Key, dst []uint32, stride int, add uint32) {
	for j := range keys {
		dst[j*stride] = add + reduce(t.hash64(keys[j]), t.buckets)
	}
}

// NewMultiplyShift creates a multiply-shift hash family seeded with seed.
// Each function multiplies the two key words by random odd 64-bit constants
// and mixes; it is cheaper than tabulation but only 2-independent.
func NewMultiplyShift(seed int64) Family {
	return &multShiftFamily{rng: rand.New(rand.NewSource(seed))}
}

type multShiftFamily struct {
	rng *rand.Rand
}

func (f *multShiftFamily) New(buckets uint32) Func {
	if buckets == 0 {
		panic("hashing: zero buckets")
	}
	return &multShiftFunc{
		a:       f.rng.Uint64() | 1,
		b:       f.rng.Uint64() | 1,
		c:       f.rng.Uint64(),
		buckets: buckets,
	}
}

type multShiftFunc struct {
	a, b, c uint64
	buckets uint32
}

func (m *multShiftFunc) Bucket(k flow.Key) uint32 {
	h := k.Hi*m.a + k.Lo*m.b + m.c
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return reduce(h, m.buckets)
}

func (m *multShiftFunc) Buckets() uint32 { return m.buckets }

// BucketTile implements TileHasher: the whole tile's buckets in one tight
// multiply-mix loop with the constants held in registers.
func (m *multShiftFunc) BucketTile(keys []flow.Key, dst []uint32, stride int, add uint32) {
	a, b, c := m.a, m.b, m.c
	for j := range keys {
		h := keys[j].Hi*a + keys[j].Lo*b + c
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		dst[j*stride] = add + reduce(h, m.buckets)
	}
}

// NewDoubleHash creates a Kirsch–Mitzenmacher double-hashing family seeded
// with seed. All functions drawn from one family instance share a single
// base hash pair (h1, h2); the i-th function returns h1(k) + i·h2(k) folded
// onto its bucket range. Consecutive functions from one instance can be
// batched behind a Deriver (see DeriverFor) so a d-stage filter computes one
// base hash per packet and derives all d buckets with an add and a multiply
// each.
func NewDoubleHash(seed int64) Family {
	rng := rand.New(rand.NewSource(seed))
	return &doubleHashFamily{base: dhBase{
		a1: rng.Uint64() | 1,
		b1: rng.Uint64() | 1,
		c1: rng.Uint64(),
		a2: rng.Uint64() | 1,
		b2: rng.Uint64() | 1,
		c2: rng.Uint64(),
	}}
}

// dhBase is the shared base hash of a double-hash family: two independent
// multiply-shift mixes of the key.
type dhBase struct {
	a1, b1, c1 uint64
	a2, b2, c2 uint64
}

// hash computes the base pair for a key. h2 is forced odd so that distinct
// stage indices always land on distinct points of the hash space (an even
// h2 would let stages collide pairwise on every key).
func (b *dhBase) hash(k flow.Key) (h1, h2 uint64) {
	h1 = mix64(k.Hi*b.a1 + k.Lo*b.b1 + b.c1)
	h2 = mix64(k.Hi*b.a2+k.Lo*b.b2+b.c2) | 1
	return h1, h2
}

// mix64 is the finalizer shared by the multiply-shift style hashes.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

type doubleHashFamily struct {
	base dhBase
	next uint64 // stage index of the next derived function
}

func (f *doubleHashFamily) New(buckets uint32) Func {
	if buckets == 0 {
		panic("hashing: zero buckets")
	}
	fn := &doubleHashFunc{base: &f.base, i: f.next, buckets: buckets}
	f.next++
	return fn
}

type doubleHashFunc struct {
	base    *dhBase
	i       uint64
	buckets uint32
}

func (d *doubleHashFunc) Bucket(k flow.Key) uint32 {
	h1, h2 := d.base.hash(k)
	return reduce(h1+d.i*h2, d.buckets)
}

func (d *doubleHashFunc) Buckets() uint32 { return d.buckets }

// TileHasher is implemented by hash functions that can derive a whole
// tile's buckets in one call: BucketTile stores add + Bucket(keys[j]) at
// dst[j*stride] for every j. The strided destination lets a multistage
// filter write each stage's buckets straight into its packet-major offset
// scratch without a scatter pass, and the per-tile call amortizes the
// per-packet dispatch while keeping the function's tables cache-hot.
type TileHasher interface {
	Func
	BucketTile(keys []flow.Key, dst []uint32, stride int, add uint32)
}

// Deriver fills every stage's bucket from one base hash computation per key
// — the fast path for hash families whose functions are derived from a
// shared base.
type Deriver interface {
	// DeriveBase fills out[j] with the same bucket the j-th underlying
	// function's Bucket(k) would return and returns the 64-bit base hash
	// the buckets were derived from. len(out) must equal the function count
	// the Deriver was built for. Callers that keep a hash table next to the
	// filter (the flow memory) reuse the base as that table's probe hash,
	// so one hash computation per packet serves both structures.
	DeriveBase(k flow.Key, out []uint32) uint64
}

// DeriverFor returns a Deriver equivalent to calling Bucket on each of funcs
// in turn, when funcs supports single-hash derivation: all functions must be
// consecutive draws (in order) from one double-hash family instance with the
// same bucket count. It returns nil otherwise, and callers fall back to
// per-function hashing.
func DeriverFor(funcs []Func) Deriver {
	if len(funcs) == 0 {
		return nil
	}
	first, ok := funcs[0].(*doubleHashFunc)
	if !ok {
		return nil
	}
	for j, fn := range funcs {
		d, ok := fn.(*doubleHashFunc)
		if !ok || d.base != first.base || d.i != first.i+uint64(j) || d.buckets != first.buckets {
			return nil
		}
	}
	return &dhDeriver{base: first.base, i0: first.i, n: len(funcs), buckets: first.buckets}
}

type dhDeriver struct {
	base    *dhBase
	i0      uint64
	n       int
	buckets uint32
}

func (d *dhDeriver) DeriveBase(k flow.Key, out []uint32) uint64 {
	h1, h2 := d.base.hash(k)
	h := h1 + d.i0*h2
	for j := 0; j < d.n; j++ {
		out[j] = reduce(h, d.buckets)
		h += h2
	}
	return h1
}

// reduce maps a 64-bit hash onto [0, buckets) without the modulo bias of a
// plain remainder: it multiplies the high 32 bits of the hash by the range
// (Lemire's fast alternative to modulo).
func reduce(h uint64, buckets uint32) uint32 {
	return uint32((h >> 32) * uint64(buckets) >> 32)
}

// FamilyByName returns a seeded family by name ("tabulation",
// "multiplyshift" or "doublehash"); it returns nil for unknown names.
func FamilyByName(name string, seed int64) Family {
	switch name {
	case "tabulation":
		return NewTabulation(seed)
	case "multiplyshift":
		return NewMultiplyShift(seed)
	case "doublehash":
		return NewDoubleHash(seed)
	}
	return nil
}
