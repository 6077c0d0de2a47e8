// Package multistage implements the paper's second algorithm (Section 3.2):
// multistage filters. A filter has d stages of b counters each, indexed by
// independent hash functions of the flow ID. A packet's flow is promoted to
// flow memory when the counters it hashes to reach the threshold T at every
// stage; afterwards the flow's traffic is counted exactly in its entry.
//
// Both variants are implemented: the parallel filter (all stages see every
// packet; zero false negatives) and the serial filter (stage i+1 sees only
// packets that passed stage i, each stage using threshold T/d).
//
// The optimizations evaluated in the paper are supported:
//
//   - conservative update (Section 3.3.2): counters are raised as little as
//     possible — no counter is pushed beyond what the smallest counter
//     proves the flow could have sent, and promoted packets update no
//     counters. This reduces false positives by an order of magnitude.
//   - shielding (Section 3.3.1): packets of flows already in flow memory do
//     not pass through the filter, so long-lived large flows stop inflating
//     the counters other flows hash to.
//   - preserving entries across measurement intervals.
package multistage

import (
	"math"

	"repro/internal/cfgerr"
	"repro/internal/core"
	"repro/internal/core/flowmem"
	"repro/internal/flow"
	"repro/internal/hashing"
	"repro/internal/memmodel"
	"repro/internal/telemetry"
)

// Config configures a multistage filter.
type Config struct {
	// Stages is the filter depth d. The paper uses up to 4 in its device
	// evaluation and shows logarithmic scaling in the number of flows.
	Stages int
	// Buckets is the number of counters b per stage.
	Buckets int
	// Entries is the flow memory capacity.
	Entries int
	// Threshold is the large-flow threshold T in bytes per interval.
	Threshold uint64
	// Serial selects the serial filter variant (stages in sequence, each
	// with threshold T/d) instead of the default parallel filter.
	Serial bool
	// Conservative enables conservative update of counters.
	Conservative bool
	// Shield prevents packets of flows that already have an entry from
	// updating filter counters.
	Shield bool
	// Preserve enables preserving entries across intervals.
	Preserve bool
	// Correction adds each flow's promotion-time counter floor (a proven
	// upper bound on its uncounted bytes) to its reported estimate —
	// Section 4.2.1's correction factor, made data driven. It improves
	// accuracy but forfeits the lower-bound property, so it is unsuitable
	// for billing. Parallel filters only.
	Correction bool
	// Hash selects the hash family: "tabulation" by default,
	// "multiplyshift" for the cheaper 2-independent family, or
	// "doublehash" for Kirsch–Mitzenmacher derived stages (one base hash
	// per packet, all d stage buckets derived as h1 + i·h2 — the cheapest
	// per-packet hashing, at the cost of inter-stage independence).
	Hash string
	// Seed seeds the hash functions.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Stages < 1 {
		return cfgerr.New("multistage", "Stages", "must be at least 1, got %d", c.Stages)
	}
	if c.Buckets < 1 {
		return cfgerr.New("multistage", "Buckets", "must be at least 1, got %d", c.Buckets)
	}
	if c.Entries < 1 {
		return cfgerr.New("multistage", "Entries", "must be at least 1, got %d", c.Entries)
	}
	if c.Threshold < 1 || c.Threshold > counterCap {
		return cfgerr.New("multistage", "Threshold", "must be in [1, %d], got %d", uint64(counterCap), c.Threshold)
	}
	if c.Hash != "" && hashing.FamilyByName(c.Hash, 0) == nil {
		return cfgerr.New("multistage", "Hash", "unknown hash family %q", c.Hash)
	}
	if c.Correction && c.Serial {
		return cfgerr.New("multistage", "Correction", "only defined for parallel filters")
	}
	return nil
}

// Filter implements core.Algorithm.
type Filter struct {
	cfg Config
	mem *flowmem.Memory
	// counters is the d×b stage counter array flattened into one
	// allocation (stage i, bucket j at i·b + j), the software analogue of
	// the paper's SRAM counter banks: no per-stage slice headers or
	// pointer hops on the packet path. Stored values are absolute: a
	// counter's value in the current interval is max(c, base) − base.
	counters []uint64
	// base is the current interval's counter floor. Closing an interval
	// raises it by counterStride instead of clearing the counters, so every
	// counter written in an earlier interval reads as zero and the close
	// costs O(1), not O(d·b); see nextEpoch.
	base uint64
	// buckets is the per-stage width b; stage i's counters start at i·b.
	buckets uint32
	// hasher hashes keys for all d stages: flat counter offsets for a tile
	// of keys, or one stage's bucket.
	hasher hashing.StageHasher
	cost   memmodel.Counter
	tel    telemetry.Algorithm

	// dropped counts flows that passed the filter but found the flow
	// memory full; threshold adaptation keeps this near zero.
	dropped uint64

	// Grow-only batch scratch, sized for the largest batch so mixed batch
	// sizes never re-allocate. batchHash holds each packet's flow memory
	// probe hash (probe phase); found holds each packet's lookup-phase
	// entry, nil on a miss. counterKeys holds, in batch order, the keys of
	// the packets that touch counters (lookup-phase misses, or every
	// packet without shielding), and batchIdx their flat counter offsets,
	// packet-major: the k-th such packet's d offsets are contiguous at
	// k·d..k·d+d, so the per-packet counter logic reads one short run.
	batchHash   []uint64
	found       []*flowmem.Entry
	counterKeys []flow.Key
	batchIdx    []uint32
	// prefetchSink accumulates the counter values the kernel's lookup phase
	// loads to warm their cache lines, so the compiler cannot drop the
	// loads as dead.
	prefetchSink uint64
	// oneKey and oneSize hold Process's batch of one.
	oneKey  [1]flow.Key
	oneSize [1]uint32
}

// fusedTile is the number of packets per tile of the packet kernel. Small
// enough that a tile's working set — a flow memory line or two per packet,
// plus d counter lines per packet that touches counters — stays L1-resident
// between the phase that pulls it in and the update phase that reuses it;
// large enough that each phase keeps many independent misses in flight.
const fusedTile = 32

// probeAhead and lookupAhead are the kernel's prefetch distances in tiles:
// tile i+2 is probe-hashed (its flow memory slots prefetched) and tile i+1
// looked up (its counter lines prefetched) while tile i is updated. The
// prefetch distance table in EXPERIMENTS.md, measured across table sizes
// {L2-resident, 4×L2, 64×L2}, shows two tiles as the all-around sweet spot
// — far enough ahead that a DRAM-resident table's lines arrive before their
// use, near enough that the prefetched lines are not evicted again under
// cache pressure.
const (
	probeAhead  = 2
	lookupAhead = 1
)

// Interval floor constants. Within one interval a counter's value stays in
// [0, counterCap] (writes saturate there), so every stored counter is below
// base+counterStride — the next interval's floor — and reads as zero once
// the floor advances. Floors run 0, counterStride, … up to maxBase; the
// close after maxBase clears the counters once and restarts the floor at
// zero, which happens every 65 535 intervals. maxBase leaves room above
// the last interval's values for one more packet size without overflow.
const (
	counterStride = 1 << 48
	counterCap    = counterStride - 1
	maxBase       = math.MaxUint64 - 2*counterStride + 1
)

// New creates a multistage filter.
func New(cfg Config) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Hash
	if name == "" {
		name = "tabulation"
	}
	family := hashing.FamilyByName(name, cfg.Seed)
	f := &Filter{
		cfg:      cfg,
		mem:      flowmem.New(cfg.Entries),
		counters: make([]uint64, cfg.Stages*cfg.Buckets),
		buckets:  uint32(cfg.Buckets),
		hasher:   family.Stages(cfg.Stages, uint32(cfg.Buckets)),
	}
	f.tel.Init(f.Name(), cfg.Entries, cfg.Threshold)
	return f, nil
}

// Name implements core.Algorithm.
func (f *Filter) Name() string {
	if f.cfg.Serial {
		return "serial-multistage-filter"
	}
	return "multistage-filter"
}

// stageThreshold returns the per-stage promotion threshold: T for parallel
// filters, T/d for serial ones (Section 3.2.1).
func (f *Filter) stageThreshold() uint64 {
	if f.cfg.Serial {
		t := f.cfg.Threshold / uint64(f.cfg.Stages)
		if t < 1 {
			t = 1
		}
		return t
	}
	return f.cfg.Threshold
}

// Process implements core.Algorithm as a batch of one through ProcessBatch.
func (f *Filter) Process(key flow.Key, size uint32) {
	f.oneKey[0], f.oneSize[0] = key, size
	f.ProcessBatch(nil, f.oneKey[:], f.oneSize[:])
}

// ProcessBatch implements core.BatchAlgorithm and is the filter's one packet
// kernel, a single pass over the batch in tiles of fusedTile packets, each
// tile going through three software-pipelined phases:
//
//   - probe, probeAhead tiles ahead: the flow memory probe hash — hashes[j]
//     when the caller supplies it, flowmem.Hash otherwise — and a
//     prefetching load of the home slot;
//   - lookup, lookupAhead tiles ahead: the flow memory lookup, and for the
//     packets that will touch counters (untracked flows, or every packet
//     without shielding) the stage offsets, hashed as one compacted tile,
//     and prefetching loads of their counter lines;
//   - update: the filter and flow memory logic against cache-resident
//     lines. A shielded packet of a tracked flow adds its bytes straight to
//     the entry its lookup found and never hashes a stage.
//
// The lookup phase can be trusted because entries never move or leave
// mid-interval and a batch never spans an interval: an entry found stays
// tracked, at the same address, until the update. A miss is not final — an
// earlier packet in the lookahead window may have promoted the flow — so a
// missed packet is probed again, but only when the flow memory has grown
// since its tile's lookup. Memory-reference accounting follows the paper's
// per-packet work, not the phases: it is accumulated locally and folded
// into the filter's counter with a single Add.
func (f *Filter) ProcessBatch(hashes []uint64, keys []flow.Key, sizes []uint32) {
	n := len(keys)
	if n == 0 {
		return
	}
	d := f.cfg.Stages
	f.growScratch(n, d)
	bh := hashes
	if bh == nil {
		bh = f.batchHash[:n]
	}
	var cost memmodel.Counter
	cost.Packets = uint64(n)
	var bytes uint64
	// seen[i%len(seen)] is the flow memory's size at tile i's lookup.
	var seen [lookupAhead + 1]int
	probed, looked := 0, 0 // packets through the probe and lookup phases
	rows, row := 0, 0      // offset rows filled by the lookup phase, used by the update
	for t := 0; t < n; t += fusedTile {
		for ; probed < n && probed < t+(probeAhead+1)*fusedTile; probed += fusedTile {
			f.probeTile(hashes, keys, bh, probed, min(probed+fusedTile, n))
		}
		for ; looked < n && looked < t+(lookupAhead+1)*fusedTile; looked += fusedTile {
			seen[looked/fusedTile%len(seen)] = f.mem.Len()
			rows = f.lookupTile(keys, bh, looked, min(looked+fusedTile, n), rows)
		}
		before := seen[t/fusedTile%len(seen)]
		end := min(t+fusedTile, n)
		for j := t; j < end; j++ {
			bytes += uint64(sizes[j])
			e := f.found[j]
			var idx []uint32
			if e == nil || !f.cfg.Shield {
				idx = f.batchIdx[row*d : row*d+d : row*d+d]
				row++
			}
			if e == nil && f.mem.Len() != before {
				e = f.mem.LookupHash(bh[j], keys[j])
			}
			f.process(keys[j], sizes[j], bh[j], e, idx, &cost)
		}
	}
	f.cost.Add(cost)
	f.tel.Observe(uint64(n), bytes, f.cost, f.mem.Len())
}

// growScratch sizes the batch scratch for n packets of d stages. Grow-only:
// the scratch keeps the largest batch's footprint so mixed batch sizes never
// re-allocate.
func (f *Filter) growScratch(n, d int) {
	if need := n * d; cap(f.batchIdx) < need {
		f.batchIdx = make([]uint32, need)
	}
	if cap(f.batchHash) < n {
		f.batchHash = make([]uint64, n)
		f.found = make([]*flowmem.Entry, n)
		f.counterKeys = make([]flow.Key, n)
	}
}

// probeTile is the kernel's probe phase over the packets in [lo, hi): it
// fills each packet's flow memory probe hash in bh (unless the caller
// supplied hashes, which bh then is) and prefetches its home slot. The loads
// are independent, so their misses overlap — the memory-level parallelism a
// one-packet-at-a-time pass cannot reach.
func (f *Filter) probeTile(hashes []uint64, keys []flow.Key, bh []uint64, lo, hi int) {
	for j := lo; j < hi; j++ {
		if hashes == nil {
			bh[j] = flowmem.Hash(keys[j])
		}
		f.mem.Prefetch(bh[j])
	}
}

// lookupTile is the kernel's lookup phase over the packets in [lo, hi): it
// looks each packet's flow up in flow memory (found), appends the keys of
// the packets that will touch counters to counterKeys from row rows on,
// hashes those keys for every stage in one call — their offset rows land in
// batchIdx — and warms the counter lines they name. It returns the number
// of rows filled so far in the batch.
func (f *Filter) lookupTile(keys []flow.Key, bh []uint64, lo, hi, rows int) int {
	first := rows
	for j := lo; j < hi; j++ {
		e := f.mem.LookupHash(bh[j], keys[j])
		f.found[j] = e
		if e == nil || !f.cfg.Shield {
			f.counterKeys[rows] = keys[j]
			rows++
		}
	}
	d := f.cfg.Stages
	idx := f.batchIdx[first*d : rows*d]
	f.hasher.Offsets(f.counterKeys[first:rows], idx)
	counters := f.counters
	var sink uint64
	for _, o := range idx {
		sink += counters[o]
	}
	f.prefetchSink += sink
	return rows
}

// process is the kernel's update phase for one packet. fmh is the packet's
// flow memory probe hash, e its flow's entry (nil when untracked) and idx
// its flat counter offsets — nil for a tracked flow under shielding, which
// touches no counter.
func (f *Filter) process(key flow.Key, size uint32, fmh uint64, e *flowmem.Entry, idx []uint32, cost *memmodel.Counter) {
	cost.SRAM(1, 0) // flow memory lookup
	if e != nil {
		e.Bytes += uint64(size)
		cost.SRAM(0, 1)
		if !f.cfg.Shield {
			// Without shielding, tracked flows keep pushing the filter
			// counters up (they can no longer cause false negatives, only
			// help other flows' false positives — shielding removes that).
			f.updateCounters(idx, size, cost)
		}
		return
	}
	if f.cfg.Serial {
		f.processSerial(key, size, fmh, idx, cost)
		return
	}
	f.processParallel(key, size, fmh, idx, cost)
}

// scanMin reads the counter at every offset in idx and returns the
// smallest value — the filter's proven bound on the flow's traffic so far.
// The floor is applied once to the raw minimum: min commutes with max.
func (f *Filter) scanMin(idx []uint32, cost *memmodel.Counter) uint64 {
	lo := uint64(math.MaxUint64)
	for _, o := range idx {
		cost.SRAM(1, 0)
		lo = min(lo, f.counters[o])
	}
	return f.value(lo)
}

// value returns stored counter c's value in the current interval: a counter
// last written before the floor was raised reads as zero.
func (f *Filter) value(c uint64) uint64 { return max(c, f.base) - f.base }

// bump returns stored counter c with size added in the current interval:
// lifted to the floor first (a stale counter counts from zero), saturating
// at the interval's largest value.
func (f *Filter) bump(c uint64, size uint32) uint64 {
	return min(max(c, f.base)+uint64(size), f.base+counterCap)
}

// raiseStages applies the counter update for a packet that did not pass the
// filter; lo is the packet's scanMin. With conservative update every counter
// becomes max(old, lo+size): the smallest counter is updated normally,
// larger ones only rise to the proven upper bound of this flow's traffic.
// Otherwise every counter grows by the packet size.
func (f *Filter) raiseStages(idx []uint32, size uint32, lo uint64, cost *memmodel.Counter) {
	if !f.cfg.Conservative {
		f.addStages(idx, size, cost)
		return
	}
	// The bound is compared in stored (absolute) terms: it is at least
	// base, so raising a stale counter to it also lifts it to the floor.
	bound := f.base + min(lo+uint64(size), counterCap)
	for _, o := range idx {
		if f.counters[o] < bound {
			f.counters[o] = bound
			cost.SRAM(0, 1)
		}
	}
}

// addStages adds the packet size to the counter at every offset in idx.
func (f *Filter) addStages(idx []uint32, size uint32, cost *memmodel.Counter) {
	for _, o := range idx {
		f.counters[o] = f.bump(f.counters[o], size)
		cost.SRAM(0, 1)
	}
}

// processParallel handles a packet of an untracked flow through the parallel
// filter; idx holds the packet's flat counter offsets and fmh its flow
// memory probe hash.
func (f *Filter) processParallel(key flow.Key, size uint32, fmh uint64, idx []uint32, cost *memmodel.Counter) {
	lo := f.scanMin(idx, cost)
	if lo+uint64(size) >= f.cfg.Threshold {
		// The flow passes the filter. With conservative update, promoted
		// packets update no counters (Section 3.3.2 second change); the
		// classic rule updates them first.
		if !f.cfg.Conservative {
			f.addStages(idx, size, cost)
		}
		// lo bounds the flow's traffic before this packet: its own bytes
		// are contained in every counter it hashes to.
		f.promote(key, size, fmh, lo, cost)
		return
	}
	f.raiseStages(idx, size, lo, cost)
}

// serialAdd pushes the packet through the serial stages at the offsets in
// idx, adding its size at each stage until one stays below the per-stage
// threshold; it reports whether the packet passed every stage.
func (f *Filter) serialAdd(idx []uint32, size uint32, cost *memmodel.Counter) bool {
	st := f.stageThreshold()
	for _, o := range idx {
		cost.SRAM(1, 1)
		c := f.bump(f.counters[o], size)
		f.counters[o] = c
		if c-f.base < st {
			return false // packet stops here; later stages never see it
		}
	}
	return true
}

// processSerial handles a packet of an untracked flow through the serial
// filter: each stage sees the packet only if it passed the previous stage.
// idx holds the packet's flat counter offsets and fmh its flow memory probe
// hash.
func (f *Filter) processSerial(key flow.Key, size uint32, fmh uint64, idx []uint32, cost *memmodel.Counter) {
	if f.cfg.Conservative {
		// Second conservative change (the first applies only to parallel
		// filters): if the packet would pass every stage, promote it
		// without updating any counters.
		st := f.stageThreshold()
		pass := true
		for _, o := range idx {
			cost.SRAM(1, 0)
			if f.value(f.counters[o])+uint64(size) < st {
				pass = false
				break
			}
		}
		if pass {
			f.promote(key, size, fmh, 0, cost)
			return
		}
	}
	if f.serialAdd(idx, size, cost) {
		f.promote(key, size, fmh, 0, cost)
	}
}

// updateCounters applies a plain (or conservative) counter update for a
// packet of a flow that is already tracked; used only without shielding.
// idx holds the packet's flat counter offsets.
func (f *Filter) updateCounters(idx []uint32, size uint32, cost *memmodel.Counter) {
	if f.cfg.Serial {
		f.serialAdd(idx, size, cost)
		return
	}
	f.raiseStages(idx, size, f.scanMin(idx, cost), cost)
}

// promote adds the flow to flow memory, counting the current packet. fmh is
// the flow's probe hash (already computed for the lookup that missed); debt
// is the proven bound on the flow's uncounted earlier bytes.
func (f *Filter) promote(key flow.Key, size uint32, fmh uint64, debt uint64, cost *memmodel.Counter) {
	e := f.mem.InsertHash(fmh, key, uint64(size))
	if e == nil {
		f.dropped++
		f.tel.Drop()
		return
	}
	if f.cfg.Correction {
		e.Debt = debt
	}
	f.tel.FilterPass()
	cost.SRAM(0, 1)
}

// EndInterval implements core.Algorithm: it reports the tracked flows,
// applies the preservation policy to flow memory, and reinitializes all
// stage counters (Section 3.3.1: "only reinitializing stage counters") by
// advancing the counter floor.
func (f *Filter) EndInterval() []core.Estimate {
	return f.AppendEstimates(make([]core.Estimate, 0, f.mem.Len()))
}

// AppendEstimates implements core.ReportAppender: EndInterval building the
// report into caller-owned memory.
func (f *Filter) AppendEstimates(dst []core.Estimate) []core.Estimate {
	entries := f.mem.Report()
	for _, e := range entries {
		est := core.Estimate{Key: e.Key, Bytes: e.Bytes, Exact: e.Exact}
		if f.cfg.Correction && !e.Exact {
			est.Bytes += e.Debt
		}
		dst = append(dst, est)
	}
	before := f.mem.Len()
	kept := f.mem.EndInterval(flowmem.Policy{
		Preserve:  f.cfg.Preserve,
		Threshold: f.cfg.Threshold,
	})
	f.tel.ObserveInterval(f.cfg.Threshold, kept, before-kept)
	f.nextEpoch()
	f.dropped = 0
	return dst
}

// nextEpoch zeroes every stage counter for the next interval by raising the
// floor one stride above everything the closing interval can have stored.
// Only when the floor would pass maxBase are the counters really cleared.
func (f *Filter) nextEpoch() {
	if f.base >= maxBase {
		clear(f.counters)
		f.base = 0
		return
	}
	f.base += counterStride
}

// EntriesUsed implements core.Algorithm.
func (f *Filter) EntriesUsed() int { return f.mem.Len() }

// Capacity implements core.Algorithm.
func (f *Filter) Capacity() int { return f.mem.Capacity() }

// Threshold implements core.Algorithm.
func (f *Filter) Threshold() uint64 { return f.cfg.Threshold }

// SetThreshold implements core.Algorithm. t is clamped to [1, counterCap]:
// counters saturate at counterCap, so a larger threshold could never be
// reached.
func (f *Filter) SetThreshold(t uint64) {
	t = min(max(t, 1), counterCap)
	f.cfg.Threshold = t
	f.tel.SetThreshold(t)
}

// Mem implements core.Algorithm.
func (f *Filter) Mem() *memmodel.Counter { return &f.cost }

// EntriesRejected implements core.MemoryPressure.
func (f *Filter) EntriesRejected() uint64 { return f.mem.Rejected() }

// Telemetry implements core.Instrumented.
func (f *Filter) Telemetry() *telemetry.Algorithm { return &f.tel }

// Dropped returns the number of flows that passed the filter in the current
// interval but were dropped because the flow memory was full.
func (f *Filter) Dropped() uint64 { return f.dropped }

// CounterValue exposes a stage counter's value in the current interval for
// tests and diagnostics.
func (f *Filter) CounterValue(stage int, bucket int) uint64 {
	return f.value(f.counters[stage*int(f.buckets)+bucket])
}

// BucketOf exposes the bucket a key hashes to at a stage, for tests.
func (f *Filter) BucketOf(stage int, key flow.Key) int {
	return int(f.hasher.Bucket(stage, key))
}
