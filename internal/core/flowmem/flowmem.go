// Package flowmem implements the flow memory shared by the paper's
// algorithms: a bounded table of per-flow entries held in (simulated) SRAM.
// Once a flow earns an entry — by being sampled, or by passing the
// multistage filter — every one of its subsequent packets updates the entry,
// so its traffic from that point on is counted exactly.
//
// The package also implements the interval-transition policies of Section
// 3.3.1: preserving entries of large flows across measurement intervals and
// the early removal threshold of sample and hold.
//
// # Memory layout
//
// Like the SRAM flow memory the paper models, the table is a flat,
// preallocated array: entries live in an open-addressing hash table with
// linear probing, sized at construction and never reallocated. A lookup is a
// hash, a scan of a few occupancy bytes, and a key compare — a constant
// number of touches to memory that stays cache-resident, with no pointer
// chasing and no steady-state allocation. Entries never move while an
// interval is in progress (inserts only claim empty slots), so pointers
// returned by LookupHash and InsertHash stay valid until the next
// EndInterval, which evicts by rebuilding the table without tombstones.
//
// Each slot's 64-bit probe hash is stored in a dense array parallel to the
// entries. Probes compare the stored hash before touching the entry, so a
// collision chain scans compact hash words (8 per cache line) and loads a
// 48-byte entry only on a near-certain match — and the key is never hashed
// twice: the packet kernels compute Hash once per packet and pass it to
// LookupHash, InsertHash and Prefetch, and the interval-transition rebuild
// re-homes surviving entries from their stored hashes.
package flowmem

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/flow"
)

// Entry is one tracked flow.
type Entry struct {
	Key flow.Key
	// Bytes counted for the flow in the current measurement interval since
	// the entry existed.
	Bytes uint64
	// CreatedThisInterval marks entries added in the current interval
	// (their counts may miss the flow's earlier bytes and they are subject
	// to the early removal rule).
	CreatedThisInterval bool
	// Exact marks entries preserved from a previous interval: counting
	// covered the whole interval, so Bytes is the flow's exact traffic.
	Exact bool
	// Debt is an upper bound on the bytes the flow may have sent before
	// the entry was created (the counter floor at promotion for multistage
	// filters). Estimate-correcting reports add it to Bytes, trading the
	// lower-bound property for accuracy (Section 4.2.1 of the paper).
	Debt uint64
}

// Memory is a bounded flow table.
type Memory struct {
	capacity int
	// mask is len(slots)-1; the slot count is a power of two at most 2/3
	// full when the table holds capacity entries, so probe chains stay
	// short.
	mask uint64
	// ctrl marks occupied slots (1) so probing scans one compact byte per
	// slot and touches an Entry only on a potential match.
	ctrl []uint8
	// hashes[i] is slot i's full 64-bit probe hash; probes compare it
	// before loading the entry, so collision chains stay in the dense
	// hash array.
	hashes []uint64
	slots  []Entry
	count  int
	// rejected counts inserts refused because the table was at capacity —
	// the memory-pressure signal threshold adaptation feeds on.
	rejected uint64

	// prefetchSink accumulates the values Prefetch loads, so the compiler
	// cannot eliminate the warming loads as dead.
	prefetchSink uint64

	// reportScratch holds Report's sorted entries; radixKeys and radixTmp
	// are its radix sort's two record buffers. All three are grow-only, so
	// steady-state intervals allocate nothing once warm.
	reportScratch []Entry
	radixKeys     []radixRec
	radixTmp      []radixRec
}

// radixRec is Report's sort record: an entry's position in the report (or
// in a run of it) and its sort key, the complement of the value it orders
// by, so ascending keys are descending values. At 16 bytes a record moves a
// third of the data an Entry would through each pass.
type radixRec struct {
	key uint64
	pos uint32
}

// New creates a flow memory with room for capacity entries. It panics if
// capacity < 1.
func New(capacity int) *Memory {
	if capacity < 1 {
		panic("flowmem: capacity must be at least 1")
	}
	slots := nextPow2(capacity + capacity/2)
	return &Memory{
		capacity: capacity,
		mask:     uint64(slots - 1),
		ctrl:     make([]uint8, slots),
		hashes:   make([]uint64, slots),
		slots:    make([]Entry, slots),
	}
}

// nextPow2 returns the smallest power of two >= n (and at least 8).
func nextPow2(n int) int {
	p := 8
	for p < n {
		p <<= 1
	}
	return p
}

// Hash mixes the 128-bit flow key down to the 64-bit value that seeds the
// probe sequence. The table is not adversary-facing (keys already went
// through the measurement path), so a fixed strong mix suffices and keeps
// behavior reproducible run to run. It is exported so packet kernels (and
// the sharded pipeline, which picks each packet's shard from it) can
// compute it once per packet and pass it to Prefetch, LookupHash and
// InsertHash.
func Hash(k flow.Key) uint64 {
	h := k.Lo*0x9E3779B97F4A7C15 + k.Hi*0xC2B2AE3D27D4EB4F
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return h
}

// Capacity returns the table capacity in entries.
func (m *Memory) Capacity() int { return m.capacity }

// Len returns the number of entries in use.
func (m *Memory) Len() int { return m.count }

// Full reports whether the table is at capacity.
func (m *Memory) Full() bool { return m.count >= m.capacity }

// LookupHash returns the entry for key, or nil; h is the key's probe hash,
// which callers compute once per packet and reuse for prefetch, lookup and
// insert. Every caller of one Memory must use the same hash function, Hash.
// The pointer stays valid — and the entry in place — until the next
// EndInterval.
func (m *Memory) LookupHash(h uint64, key flow.Key) *Entry {
	i := h & m.mask
	for m.ctrl[i] != 0 {
		if m.hashes[i] == h && m.slots[i].Key == key {
			return &m.slots[i]
		}
		i = (i + 1) & m.mask
	}
	return nil
}

// Prefetch warms the cache lines a probe for hash h will touch: the home
// slot's control byte, hash word and entry. Go has no portable prefetch
// intrinsic, so the warming is done with real loads folded into a sink
// field the compiler cannot eliminate; issued a short distance ahead of the
// probe, the loads' misses overlap instead of serializing.
func (m *Memory) Prefetch(h uint64) {
	i := h & m.mask
	m.prefetchSink += uint64(m.ctrl[i]) + m.hashes[i] + m.slots[i].Bytes
}

// Rejected returns the cumulative number of inserts refused because the
// table was full. It never resets: callers tracking per-interval pressure
// take deltas.
func (m *Memory) Rejected() uint64 { return m.rejected }

// InsertHash adds an entry for key, whose probe hash is h, with an initial
// byte count. It returns nil when the table is full or the key is already
// present (callers are expected to LookupHash first). Full-table refusals
// are counted in Rejected.
func (m *Memory) InsertHash(h uint64, key flow.Key, initialBytes uint64) *Entry {
	if m.Full() {
		m.rejected++
		return nil
	}
	i := h & m.mask
	for m.ctrl[i] != 0 {
		if m.hashes[i] == h && m.slots[i].Key == key {
			return nil
		}
		i = (i + 1) & m.mask
	}
	m.ctrl[i] = 1
	m.hashes[i] = h
	m.count++
	e := &m.slots[i]
	*e = Entry{Key: key, Bytes: initialBytes, CreatedThisInterval: true}
	return e
}

// insertKept re-homes surviving entry e during the EndInterval rebuild from
// its stored probe hash h — the key is never rehashed, and the table holds
// no other entry with that key, so the first empty slot is its place.
func (m *Memory) insertKept(h uint64, e Entry) {
	i := h & m.mask
	for m.ctrl[i] != 0 {
		i = (i + 1) & m.mask
	}
	m.ctrl[i] = 1
	m.hashes[i] = h
	m.count++
	m.slots[i] = e
}

// Policy is the interval-transition policy of Section 3.3.1.
type Policy struct {
	// Preserve keeps entries across the interval boundary instead of
	// erasing the table: entries that counted at least Threshold bytes
	// (identified large flows) and entries created during the interval
	// (possible large flows identified late) survive with their counters
	// reset, so the next interval is measured exactly from its first byte.
	Preserve bool
	// Threshold is the large-flow threshold T in bytes.
	Threshold uint64
	// EarlyRemoval, when non-zero, is the early removal threshold R < T:
	// entries created this interval survive only if they counted at least
	// R bytes. It prunes the small flows that sample and hold's false
	// positives would otherwise carry into the next interval.
	EarlyRemoval uint64
}

// Report returns the current entries as estimates, sorted by descending
// byte count, ties by descending key (Hi, then Lo) for determinism. The
// returned slice is scratch reused by the next Report call; callers must
// not retain it across calls.
//
// The entries are copied out in slot order, one sequential sweep of the
// table. Their byte order comes from a stable LSD radix sort of compact
// (^Bytes, position) records, and the copies are then permuted into that
// order in place. Only runs of equal counts are sorted by key: long runs
// with radix passes over the key, short ones with comparisons.
func (m *Memory) Report() []Entry {
	n := m.count
	out := slices.Grow(m.reportScratch[:0], n)[:n]
	recs := growRecs(m.radixKeys, n)
	tmp := growRecs(m.radixTmp, n)
	m.reportScratch, m.radixKeys, m.radixTmp = out, recs, tmp
	var span uint64 // OR of all counts: same highest set bit as the largest
	j := 0
	for i, c := range m.ctrl {
		if c != 0 {
			out[j] = m.slots[i]
			span |= out[j].Bytes
			recs[j] = radixRec{key: ^out[j].Bytes, pos: uint32(j)}
			j++
		}
	}
	recs, tmp = radixSort(recs, tmp, span)
	permute(out, recs)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && out[hi].Bytes == out[lo].Bytes {
			hi++
		}
		switch {
		case hi-lo >= radixRun:
			sortByKey(out[lo:hi], recs[lo:hi], tmp[lo:hi])
		case hi-lo > 1:
			slices.SortFunc(out[lo:hi], byKeyDesc)
		}
		lo = hi
	}
	return out
}

// radixRun is the shortest run of equal counts Report orders by key with
// radix passes rather than a comparison sort. A key takes up to 16 passes,
// each with a fixed 256-bucket cost, so only long runs — the preserved
// entries that saw no traffic — repay them. Measured on random keys, the
// two cost the same per entry between 128 and 384 entries; radix passes
// take half the time from 1024 up (EXPERIMENTS.md, "Interval close").
const radixRun = 256

// sortByKey orders run, whose entries all have the same count, by
// descending key. It radix-sorts records of the run's positions twice, by
// ^Lo and then stably by ^Hi (the more significant word last), and then
// moves each entry once. recs and tmp are scratch of the run's length.
func sortByKey(run []Entry, recs, tmp []radixRec) {
	var span uint64
	for i := range run {
		recs[i] = radixRec{key: ^run[i].Key.Lo, pos: uint32(i)}
		span |= run[i].Key.Lo
	}
	recs, tmp = radixSort(recs, tmp, span)
	span = 0
	for i := range recs {
		hi := run[recs[i].pos].Key.Hi
		recs[i].key = ^hi
		span |= hi
	}
	recs, _ = radixSort(recs, tmp, span)
	permute(run, recs)
}

// permute reorders entries in place so that entries[k] holds what
// entries[recs[k].pos] held before the call. It follows each cycle of the
// permutation once, marking a filled position k by setting recs[k].pos to k.
func permute(entries []Entry, recs []radixRec) {
	for k := range recs {
		if int(recs[k].pos) == k {
			continue
		}
		first := entries[k]
		cur := k
		for {
			next := int(recs[cur].pos)
			recs[cur].pos = uint32(cur)
			if next == k {
				entries[cur] = first
				break
			}
			entries[cur] = entries[next]
			cur = next
		}
	}
}

// byKeyDesc orders entries by descending key: Hi, then Lo.
func byKeyDesc(a, b Entry) int {
	if c := cmp.Compare(b.Key.Hi, a.Key.Hi); c != 0 {
		return c
	}
	return cmp.Compare(b.Key.Lo, a.Key.Lo)
}

// growRecs returns buf resized to n records. It reallocates only when the
// capacity is short, and then to exactly n: unlike append's doubling, the
// buffers never hold more than the largest report needed.
func growRecs(buf []radixRec, n int) []radixRec {
	if cap(buf) < n {
		return make([]radixRec, n)
	}
	return buf[:n]
}

// radixSort sorts recs by key with a stable LSD radix sort in 8-bit
// digits, using tmp (of the same length) as the second buffer. Every key is
// the complement of a value, and span is the OR of those values: digits
// above its highest set bit are 0xFF in every key, so the sort stops there,
// and a digit every record shares is skipped. It returns the buffer holding
// the sorted records and the other one.
func radixSort(recs, tmp []radixRec, span uint64) (sorted, spare []radixRec) {
	for shift := 0; shift < bits.Len64(span); shift += 8 {
		var count [256]int
		for _, r := range recs {
			count[uint8(r.key>>shift)]++
		}
		if count[uint8(recs[0].key>>shift)] == len(recs) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, r := range recs {
			d := uint8(r.key >> shift)
			tmp[count[d]] = r
			count[d]++
		}
		recs, tmp = tmp, recs
	}
	return recs, tmp
}

// EndInterval applies the transition policy: without preservation the table
// is erased; with it, surviving entries get their byte counts reset and are
// marked Exact for the next interval. It returns the number of entries
// kept. Entry pointers obtained before the call are invalid afterwards.
//
// Eviction is tombstone-free and in place: one sweep in slot order, starting
// just past an empty slot so every probe cluster is met from its start,
// takes each entry out and re-homes the survivors from their stored probe
// hashes. A survivor's home lies in its cluster, which the sweep has
// already rebuilt up to the slot just emptied, so it lands between its home
// and that slot — exactly where inserting the survivors into an empty
// table in sweep order would put it. The sweep touches the table in address
// order and needs no scratch.
func (m *Memory) EndInterval(p Policy) int {
	if !p.Preserve {
		m.clear()
		return 0
	}
	start := uint64(0) // the table is at most 2/3 full, so an empty slot exists
	for m.ctrl[start] != 0 {
		start++
	}
	for k := uint64(1); k <= m.mask; k++ {
		i := (start + k) & m.mask
		if m.ctrl[i] == 0 {
			continue
		}
		m.ctrl[i] = 0
		m.count--
		e := &m.slots[i]
		survives := e.Bytes >= p.Threshold
		if !survives && e.CreatedThisInterval {
			survives = e.Bytes >= p.EarlyRemoval
		}
		if survives {
			m.insertKept(m.hashes[i], Entry{Key: e.Key, Exact: true})
		}
	}
	return m.count
}

// clear empties the table in place.
func (m *Memory) clear() {
	clear(m.ctrl)
	m.count = 0
}
