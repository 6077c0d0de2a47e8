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
// All families hash the 128-bit flow key of internal/flow to at least the 32
// bits the bucket reduction reads; a Func folds that value onto one bucket
// range, and a StageHasher does so for every stage of a filter at once.
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
	// Stages returns the next d functions with the given number of buckets
	// as one StageHasher: stage i hashes exactly as the i-th of d
	// consecutive New calls would.
	Stages(d int, buckets uint32) StageHasher
}

// StageHasher hashes flow keys for all d stages of a multistage filter at
// once, laid out for the filter's flat counter array of d·b counters (stage
// i's bucket j at i·b + j).
type StageHasher interface {
	// Offsets fills dst[j·d+i] with i·b plus stage i's bucket for keys[j],
	// for every key j and stage i: packet-major flat counter offsets, so
	// one packet's d offsets are contiguous. len(dst) must be at least
	// len(keys)·d.
	Offsets(keys []flow.Key, dst []uint32)
	// Bucket returns stage's bucket for k, in [0, b).
	Bucket(stage int, k flow.Key) uint32
}

// NewTabulation creates a tabulation hash function family seeded with seed.
// Each function indexes 16 random tables with the 16 bytes of the key and
// XORs the words found; lookup tables make it both fast and strongly
// universal. A table word is the 32 bits reduce reads: the high half of
// one 64-bit draw from the family's generator.
func NewTabulation(seed int64) Family {
	return &tabulationFamily{src: rand.NewSource(seed).(rand.Source64)}
}

// tabulationFamily draws its table words straight from the source: the
// same sequence rand.Rand.Uint64 yields, minus a call per word, which is
// most of a filter's set-up time.
type tabulationFamily struct {
	src rand.Source64
}

// word draws the next table word.
func (f *tabulationFamily) word() uint32 { return uint32(f.src.Uint64() >> 32) }

func (f *tabulationFamily) New(buckets uint32) Func {
	if buckets == 0 {
		panic("hashing: zero buckets")
	}
	t := &tabulationFunc{buckets: buckets}
	for i := range t.tables {
		for j := range t.tables[i] {
			t.tables[i][j] = f.word()
		}
	}
	return t
}

// Stages packs stages (2p, 2p+1) into one table of 64-bit words, stage 2p
// in the low half and 2p+1 in the high half, so one 16-load pass hashes
// both; an odd last stage keeps a table of its own. The packed tables are
// drawn in place: no per-stage copy is ever kept beside them.
func (f *tabulationFamily) Stages(d int, buckets uint32) StageHasher {
	if buckets == 0 {
		panic("hashing: zero buckets")
	}
	s := &tabulationStages{d: d, buckets: buckets, pairs: make([][16][256]uint64, d/2)}
	for p := range s.pairs {
		t := &s.pairs[p]
		for i := range t {
			for j := range t[i] {
				t[i][j] = uint64(f.word())
			}
		}
		for i := range t {
			for j := range t[i] {
				t[i][j] |= uint64(f.word()) << 32
			}
		}
	}
	if d%2 == 1 {
		s.lone = f.New(buckets).(*tabulationFunc)
	}
	return s
}

type tabulationFunc struct {
	tables  [16][256]uint32
	buckets uint32
}

// tabulate XORs the 16 table words a key indexes. The byte extraction is
// fully unrolled with independent shift amounts: the rolling hi >>= 8 form
// chains every load's address computation behind the previous shift,
// while this form gives the CPU 16 independent loads to issue at once —
// the table probes are the family's whole cost, so the ILP is the speedup.
func tabulate[W uint32 | uint64](t *[16][256]W, k flow.Key) W {
	hi, lo := k.Hi, k.Lo
	h := t[0][byte(hi)] ^ t[8][byte(lo)]
	h ^= t[1][byte(hi>>8)] ^ t[9][byte(lo>>8)]
	h ^= t[2][byte(hi>>16)] ^ t[10][byte(lo>>16)]
	h ^= t[3][byte(hi>>24)] ^ t[11][byte(lo>>24)]
	h ^= t[4][byte(hi>>32)] ^ t[12][byte(lo>>32)]
	h ^= t[5][byte(hi>>40)] ^ t[13][byte(lo>>40)]
	h ^= t[6][byte(hi>>48)] ^ t[14][byte(lo>>48)]
	h ^= t[7][byte(hi>>56)] ^ t[15][byte(lo>>56)]
	return h
}

func (t *tabulationFunc) Bucket(k flow.Key) uint32 {
	return reduce32(tabulate(&t.tables, k), t.buckets)
}

func (t *tabulationFunc) Buckets() uint32 { return t.buckets }

// tabulationStages is the tabulation StageHasher: pairs[p] holds stages 2p
// and 2p+1, lone the last stage of an odd d.
type tabulationStages struct {
	pairs   [][16][256]uint64
	lone    *tabulationFunc
	d       int
	buckets uint32
}

// Offsets hashes pair-major: each packed table streams the whole slice of
// keys while it is cache-hot, writing two stages per key.
func (s *tabulationStages) Offsets(keys []flow.Key, dst []uint32) {
	d, b := s.d, s.buckets
	for p := range s.pairs {
		t := &s.pairs[p]
		i := 2 * p
		lo, hi := uint32(i)*b, uint32(i+1)*b
		for j, k := range keys {
			h := tabulate(t, k)
			dst[j*d+i] = lo + reduce32(uint32(h), b)
			dst[j*d+i+1] = hi + reduce32(uint32(h>>32), b)
		}
	}
	if s.lone != nil {
		base := uint32(d-1) * b
		for j, k := range keys {
			dst[j*d+d-1] = base + s.lone.Bucket(k)
		}
	}
}

func (s *tabulationStages) Bucket(stage int, k flow.Key) uint32 {
	if stage == 2*len(s.pairs) {
		return s.lone.Bucket(k)
	}
	h := tabulate(&s.pairs[stage/2], k)
	return reduce32(uint32(h>>(32*(stage&1))), s.buckets)
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

func (f *multShiftFamily) Stages(d int, buckets uint32) StageHasher {
	s := make(multShiftStages, d)
	for i := range s {
		s[i] = *f.New(buckets).(*multShiftFunc)
	}
	return s
}

type multShiftFunc struct {
	a, b, c uint64
	buckets uint32
}

func (m *multShiftFunc) Bucket(k flow.Key) uint32 {
	return reduce(mix64(k.Hi*m.a+k.Lo*m.b+m.c), m.buckets)
}

func (m *multShiftFunc) Buckets() uint32 { return m.buckets }

// multShiftStages is the multiply-shift StageHasher: one function per stage.
type multShiftStages []multShiftFunc

// Offsets hashes stage-major, each stage's constants held in registers
// across the whole slice of keys.
func (s multShiftStages) Offsets(keys []flow.Key, dst []uint32) {
	d := len(s)
	for i := range s {
		m := s[i]
		base := uint32(i) * m.buckets
		for j, k := range keys {
			dst[j*d+i] = base + m.Bucket(k)
		}
	}
}

func (s multShiftStages) Bucket(stage int, k flow.Key) uint32 { return s[stage].Bucket(k) }

// NewDoubleHash creates a Kirsch–Mitzenmacher double-hashing family seeded
// with seed. All functions drawn from one family instance share a single
// base hash pair (h1, h2); the i-th function returns h1(k) + i·h2(k) folded
// onto its bucket range. A StageHasher from Stages computes the base pair
// once per key and derives all d buckets with an add each.
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

func (f *doubleHashFamily) Stages(d int, buckets uint32) StageHasher {
	s := &doubleHashStages{doubleHashFunc: *f.New(buckets).(*doubleHashFunc), d: d}
	f.next += uint64(d - 1)
	return s
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

// doubleHashStages is the double-hash StageHasher: stage s is the function
// with index i+s, so one base pair per key yields every stage.
type doubleHashStages struct {
	doubleHashFunc
	d int
}

func (s *doubleHashStages) Offsets(keys []flow.Key, dst []uint32) {
	d, b := s.d, s.buckets
	for j, k := range keys {
		h1, h2 := s.base.hash(k)
		h := h1 + s.i*h2
		row := dst[j*d : j*d+d]
		base := uint32(0)
		for i := range row {
			row[i] = base + reduce(h, b)
			h += h2
			base += b
		}
	}
}

func (s *doubleHashStages) Bucket(stage int, k flow.Key) uint32 {
	h1, h2 := s.base.hash(k)
	return reduce(h1+(s.i+uint64(stage))*h2, s.buckets)
}

// reduce maps a 64-bit hash onto [0, buckets) without the modulo bias of a
// plain remainder: it multiplies the high 32 bits of the hash by the range
// (Lemire's fast alternative to modulo).
func reduce(h uint64, buckets uint32) uint32 {
	return reduce32(uint32(h>>32), buckets)
}

// reduce32 is reduce for a hash that is already the 32 bits reduce reads.
func reduce32(h, buckets uint32) uint32 {
	return uint32(uint64(h) * uint64(buckets) >> 32)
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
