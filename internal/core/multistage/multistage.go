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
	// MaxEntries, when non-zero, hard-caps the flow memory below Entries —
	// a resource bound imposed from outside that wins over the sizing
	// target. Inserts beyond the cap are refused and counted in
	// EntriesRejected, which the threshold adaptation loop reads as
	// pressure.
	MaxEntries int
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
	if c.MaxEntries < 0 {
		return cfgerr.New("multistage", "MaxEntries", "must not be negative, got %d", c.MaxEntries)
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
	hashes  []hashing.Func
	// tileHashers[i] is hashes[i]'s whole-tile fast path, resolved once at
	// construction; nil entries fall back to per-packet Bucket calls.
	tileHashers []hashing.TileHasher
	// deriver, when non-nil, derives all d stage buckets from ONE base
	// hash per packet (Kirsch–Mitzenmacher double hashing); nil for
	// families that hash each stage separately.
	deriver hashing.Deriver
	cost    memmodel.Counter
	tel     telemetry.Algorithm

	// dropped counts flows that passed the filter but found the flow
	// memory full; threshold adaptation keeps this near zero.
	dropped uint64

	// batchIdx is grow-only scratch holding a whole batch's flat counter
	// offsets, packet-major: packet j's d offsets are contiguous at
	// j·d..j·d+d, so the per-packet counter logic reads one short run.
	batchIdx []uint32
	// batchHash is grow-only scratch holding each packet's flow memory
	// probe hash, computed once in the kernel's hash phase and reused for
	// prefetch, lookup and insert.
	batchHash []uint64
	// prefetchSink accumulates the counter values the kernel's hash phase
	// loads to warm their cache lines, so the compiler cannot drop the
	// loads as dead.
	prefetchSink uint64
	// oneKey and oneSize hold Process's batch of one.
	oneKey  [1]flow.Key
	oneSize [1]uint32
}

// fusedTile is the number of packets per hash→prefetch→update tile of the
// packet kernel. Small enough that a tile's working set — d counter lines
// plus a flow memory line or two per packet — stays L1-resident between the
// hash phase that pulls it in and the update phase that reuses it; large
// enough that the hash phase keeps many independent misses in flight.
const fusedTile = 32

// lookaheadTiles is the kernel's prefetch distance: tile i+2 is hashed
// while tile i is updated. The prefetch distance table in EXPERIMENTS.md,
// measured across table sizes {L2-resident, 4×L2, 64×L2}, shows this as the
// all-around sweet spot — far enough ahead that a DRAM-resident table's
// lines arrive before their update, near enough that the prefetched lines
// are not evicted again under cache pressure.
const lookaheadTiles = 2

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
	capacity := cfg.Entries
	if cfg.MaxEntries > 0 && cfg.MaxEntries < capacity {
		capacity = cfg.MaxEntries
	}
	f := &Filter{
		cfg:      cfg,
		mem:      flowmem.New(capacity),
		counters: make([]uint64, cfg.Stages*cfg.Buckets),
		buckets:  uint32(cfg.Buckets),
		hashes:   make([]hashing.Func, cfg.Stages),
	}
	f.tileHashers = make([]hashing.TileHasher, cfg.Stages)
	for i := range f.hashes {
		f.hashes[i] = family.New(uint32(cfg.Buckets))
		f.tileHashers[i], _ = f.hashes[i].(hashing.TileHasher)
	}
	f.deriver = hashing.DeriverFor(f.hashes)
	f.tel.Init(f.Name(), capacity, cfg.Threshold)
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
// kernel, a single pass over the batch in tiles of fusedTile packets. Each
// tile runs a hash phase — stage buckets and the flow memory probe hash
// computed per packet, the counter lines and home flow memory slots warmed
// with prefetching loads — software-pipelined lookaheadTiles tiles ahead of
// an update phase that runs the filter and flow memory logic against
// cache-resident lines, so with a DRAM-resident table the prefetching loads
// of tile i+2 are in flight while tile i's updates execute. The key is
// hashed once: the flow memory probe hash comes from hashes when the
// caller supplies them, and with a doublehash deriver it is the deriver's
// base hash — which also yields the stage buckets — so hashes is ignored
// there. Memory-reference accounting is accumulated locally and folded into
// the filter's counter with a single Add.
func (f *Filter) ProcessBatch(hashes []uint64, keys []flow.Key, sizes []uint32) {
	n := len(keys)
	if n == 0 {
		return
	}
	d := len(f.hashes)
	f.growScratch(n, d)
	bidx := f.batchIdx[:n*d]
	if f.deriver != nil {
		hashes = nil
	}
	bh := hashes
	if bh == nil {
		bh = f.batchHash[:n]
	}
	var cost memmodel.Counter
	cost.Packets = uint64(n)
	var bytes uint64
	ht := 0 // packets hashed so far
	for t := 0; t < n; t += fusedTile {
		// Keep the hash phase lookaheadTiles tiles ahead of this tile.
		for ; ht < n && ht < t+(lookaheadTiles+1)*fusedTile; ht += fusedTile {
			f.hashTile(hashes, keys, bidx, bh, ht, min(ht+fusedTile, n))
		}
		end := min(t+fusedTile, n)
		for j := t; j < end; j++ {
			bytes += uint64(sizes[j])
			f.process(keys[j], sizes[j], bh[j], bidx[j*d:j*d+d], &cost)
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
	}
}

// hashTile runs the kernel's hash phase over the packets in [lo, hi): it
// fills each packet's flat counter offsets (bidx, packet-major with stride
// d) and flow memory probe hash (bh), and issues the prefetching loads that
// pull the counter lines and home flow memory slots toward the cache while
// the update phase is still lookaheadTiles tiles behind. The loads are
// independent, so their misses overlap — the memory-level parallelism a
// one-packet-at-a-time pass cannot reach. hashes, when non-nil, supplies
// the flow memory probe hashes (flowmem.Hash per key; bh is then hashes).
func (f *Filter) hashTile(hashes []uint64, keys []flow.Key, bidx []uint32, bh []uint64, lo, hi int) {
	d := len(f.hashes)
	counters := f.counters
	var sink uint64
	if f.deriver != nil {
		// One base hash per packet yields the flow memory probe hash and
		// all d stage buckets, written as one contiguous run.
		for j := lo; j < hi; j++ {
			row := bidx[j*d : j*d+d : j*d+d]
			h := f.deriver.DeriveBase(keys[j], row)
			bh[j] = h
			base := uint32(0)
			for i := range row {
				row[i] += base
				base += f.buckets
				sink += counters[row[i]]
			}
			f.mem.Prefetch(h)
		}
	} else {
		// Per-stage hashing keeps each stage's hash tables hot while the
		// tile streams through them. Stages that can hash a whole tile in
		// one call (TileHasher) write the strided offsets themselves; the
		// counter-warming loads then run as a separate sweep.
		base := uint32(0)
		for i, h := range f.hashes {
			if th := f.tileHashers[i]; th != nil {
				th.BucketTile(keys[lo:hi], bidx[lo*d+i:], d, base)
			} else {
				for j := lo; j < hi; j++ {
					bidx[j*d+i] = base + h.Bucket(keys[j])
				}
			}
			base += f.buckets
		}
		for j := lo; j < hi; j++ {
			for i := 0; i < d; i++ {
				sink += counters[bidx[j*d+i]]
			}
		}
		if hashes != nil {
			for j := lo; j < hi; j++ {
				f.mem.Prefetch(hashes[j])
			}
		} else {
			for j := lo; j < hi; j++ {
				h := flowmem.Hash(keys[j])
				bh[j] = h
				f.mem.Prefetch(h)
			}
		}
	}
	f.prefetchSink += sink
}

// process is the kernel's update phase for one packet. fmh is the packet's
// flow memory probe hash and idx its flat counter offsets, both computed by
// the hash phase.
func (f *Filter) process(key flow.Key, size uint32, fmh uint64, idx []uint32, cost *memmodel.Counter) {
	cost.SRAM(1, 0) // flow memory lookup
	if e := f.mem.LookupHash(fmh, key); e != nil {
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
	return int(f.hashes[stage].Bucket(key))
}
