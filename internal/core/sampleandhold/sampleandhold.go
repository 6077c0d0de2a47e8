// Package sampleandhold implements the paper's first algorithm (Section
// 3.1). Each byte is sampled with probability p = O/T, where T is the
// large-flow threshold and O the oversampling factor. When a byte of a flow
// with no entry is sampled, an entry is created; from then on every packet
// of the flow updates the entry, so — unlike Sampled NetFlow — the flow's
// traffic after detection is counted exactly.
//
// Byte sampling is implemented by geometric skip counting: instead of
// flipping a coin per byte, the distance to the next sampled byte is drawn
// from the geometric distribution, and packets of untracked flows consume
// that distance. This is exact and takes O(1) time per packet.
//
// The optimizations of Section 3.3.1 are supported: preserving entries
// across measurement intervals and the early removal threshold R.
package sampleandhold

import (
	"math"
	"math/rand"

	"repro/internal/cfgerr"
	"repro/internal/core"
	"repro/internal/core/flowmem"
	"repro/internal/flow"
	"repro/internal/memmodel"
	"repro/internal/telemetry"
)

// Config configures a sample-and-hold instance.
type Config struct {
	// Entries is the flow memory capacity.
	Entries int
	// Threshold is the large-flow threshold T in bytes per interval.
	Threshold uint64
	// Oversampling is the factor O; the byte sampling probability is
	// p = Oversampling / Threshold. The paper's experiments use 4 (4.7
	// when early removal is enabled).
	Oversampling float64
	// Preserve enables preserving entries across intervals.
	Preserve bool
	// EarlyRemoval is the early removal threshold as a fraction of the
	// threshold (the paper uses 0.15); zero disables early removal.
	// It only takes effect together with Preserve.
	EarlyRemoval float64
	// Correction, when set, adds the expected undercount 1/p to every
	// estimate (Section 4.1.1). It reduces the expected error but forfeits
	// the lower-bound property that makes estimates safe for billing.
	Correction bool
	// Seed seeds the sampling randomness.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries < 1 {
		return cfgerr.New("sampleandhold", "Entries", "must be at least 1, got %d", c.Entries)
	}
	if c.Threshold < 1 {
		return cfgerr.New("sampleandhold", "Threshold", "must be at least 1, got %d", c.Threshold)
	}
	if c.Oversampling <= 0 {
		return cfgerr.New("sampleandhold", "Oversampling", "must be positive, got %g", c.Oversampling)
	}
	if c.EarlyRemoval < 0 || c.EarlyRemoval >= 1 {
		return cfgerr.New("sampleandhold", "EarlyRemoval", "%g out of [0, 1)", c.EarlyRemoval)
	}
	return nil
}

// SampleAndHold implements core.Algorithm.
type SampleAndHold struct {
	cfg  Config
	mem  *flowmem.Memory
	rng  *rand.Rand
	cost memmodel.Counter
	tel  telemetry.Algorithm

	p    float64 // byte sampling probability
	skip int64   // bytes of untracked traffic until the next sample

	// batchHash is grow-only scratch holding each packet's flow memory
	// probe hash, computed once in the kernel's hash phase and reused for
	// prefetch, lookup and insert.
	batchHash []uint64
	// oneKey and oneSize hold Process's batch of one.
	oneKey  [1]flow.Key
	oneSize [1]uint32
}

// fusedTile is the number of packets per hash→prefetch→update tile of the
// ProcessBatch kernel: small enough that the tile's flow memory lines stay
// L1-resident between the hash phase and the update phase, large enough
// that the hash phase keeps many independent misses in flight.
const fusedTile = 32

// lookaheadTiles is the kernel's software-pipeline depth: the hash phase
// runs two tiles (2×fusedTile packets) ahead of the update phase — deep
// enough to cover a DRAM miss issued at hash time with a full tile of
// update work, shallow enough that the in-flight tiles' lines survive in
// L1/L2 (the prefetch distance table in EXPERIMENTS.md).
const lookaheadTiles = 2

// New creates a sample-and-hold instance.
func New(cfg Config) (*SampleAndHold, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SampleAndHold{
		cfg: cfg,
		mem: flowmem.New(cfg.Entries),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	s.setProbability()
	s.skip = s.nextSkip()
	s.tel.Init(s.Name(), cfg.Entries, cfg.Threshold)
	return s, nil
}

func (s *SampleAndHold) setProbability() {
	s.p = s.cfg.Oversampling / float64(s.cfg.Threshold)
	if s.p > 1 {
		s.p = 1
	}
}

// nextSkip draws the number of bytes until (and including) the next sampled
// byte: geometric on {1, 2, ...} with success probability p.
func (s *SampleAndHold) nextSkip() int64 {
	if s.p >= 1 {
		return 1
	}
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	n := int64(math.Ceil(math.Log(u) / math.Log(1-s.p)))
	if n < 1 {
		n = 1
	}
	return n
}

// Name implements core.Algorithm.
func (s *SampleAndHold) Name() string { return "sample-and-hold" }

// Process implements core.Algorithm as a batch of one through ProcessBatch.
func (s *SampleAndHold) Process(key flow.Key, size uint32) {
	s.oneKey[0], s.oneSize[0] = key, size
	s.ProcessBatch(nil, s.oneKey[:], s.oneSize[:])
}

// ProcessBatch implements core.BatchAlgorithm and is the algorithm's one
// packet kernel. Every packet costs one flow memory lookup; packets of
// tracked flows, and sampled packets that get an entry, cost one write.
// The batch streams through in tiles of fusedTile packets: a hash phase
// takes each packet's flow memory probe hash (from hashes, or computed
// once) and warms its home slot's cache lines with prefetching loads,
// software-pipelined lookaheadTiles tiles ahead of an update phase running
// the lookup/sample/insert logic against cache-resident lines with the
// skip state held in a register. The sampling draws consume the RNG in
// packet order, so any batching of a stream yields the same estimates, and
// the batch's memory-reference accounting is folded into the cost counter
// with a single Add.
func (s *SampleAndHold) ProcessBatch(hashes []uint64, keys []flow.Key, sizes []uint32) {
	n := len(keys)
	bh := hashes
	if bh == nil {
		if cap(s.batchHash) < n {
			s.batchHash = make([]uint64, n)
		}
		bh = s.batchHash[:n]
	}
	var reads, writes, bytes, passes uint64
	skip := s.skip
	ht := 0 // packets hashed so far
	for t := 0; t < n; t += fusedTile {
		// Keep the hash phase lookaheadTiles tiles ahead of this tile.
		for ; ht < n && ht < t+(lookaheadTiles+1)*fusedTile; ht += fusedTile {
			s.hashTile(hashes, keys, bh, ht, min(ht+fusedTile, n))
		}
		end := min(t+fusedTile, n)
		for j := t; j < end; j++ {
			key := keys[j]
			size := sizes[j]
			bytes += uint64(size)
			reads++ // flow memory lookup
			if e := s.mem.LookupHash(bh[j], key); e != nil {
				e.Bytes += uint64(size)
				writes++
				continue
			}
			// Untracked flow: its bytes consume the sampling skip.
			skip -= int64(size)
			if skip > 0 {
				continue
			}
			skip = s.nextSkip()
			// Sampled. Count the whole packet: the bytes before the sampled
			// byte belong to the same packet and are known (the paper notes
			// this makes the real algorithm slightly more accurate than the
			// analysis).
			if s.mem.InsertHash(bh[j], key, uint64(size)) != nil {
				writes++
				passes++
			} else {
				s.tel.Drop()
			}
		}
	}
	s.skip = skip
	s.cost.Add(memmodel.Counter{
		SRAMReads: reads, SRAMWrites: writes, Packets: uint64(n),
	})
	if passes != 0 {
		s.tel.FilterPasses(passes)
	}
	s.tel.Observe(uint64(n), bytes, s.cost, s.mem.Len())
}

// hashTile is the kernel's hash phase for the packets in [lo, hi): it
// computes their probe hashes into bh unless the caller supplied them
// (hashes non-nil, and then bh is hashes), and issues the prefetching loads
// for their home flow memory slots.
func (s *SampleAndHold) hashTile(hashes []uint64, keys []flow.Key, bh []uint64, lo, hi int) {
	if hashes != nil {
		for j := lo; j < hi; j++ {
			s.mem.Prefetch(hashes[j])
		}
		return
	}
	for j := lo; j < hi; j++ {
		h := flowmem.Hash(keys[j])
		bh[j] = h
		s.mem.Prefetch(h)
	}
}

// EndInterval implements core.Algorithm.
func (s *SampleAndHold) EndInterval() []core.Estimate {
	return s.AppendEstimates(make([]core.Estimate, 0, s.mem.Len()))
}

// AppendEstimates implements core.ReportAppender: EndInterval building the
// report into caller-owned memory.
func (s *SampleAndHold) AppendEstimates(dst []core.Estimate) []core.Estimate {
	entries := s.mem.Report()
	correction := uint64(0)
	if s.cfg.Correction && s.p > 0 {
		correction = uint64(1 / s.p)
	}
	for _, e := range entries {
		est := core.Estimate{Key: e.Key, Bytes: e.Bytes, Exact: e.Exact}
		if !e.Exact {
			est.Bytes += correction
		}
		dst = append(dst, est)
	}
	before := s.mem.Len()
	kept := s.mem.EndInterval(flowmem.Policy{
		Preserve:     s.cfg.Preserve,
		Threshold:    s.cfg.Threshold,
		EarlyRemoval: uint64(s.cfg.EarlyRemoval * float64(s.cfg.Threshold)),
	})
	s.tel.ObserveInterval(s.cfg.Threshold, kept, before-kept)
	return dst
}

// EntriesUsed implements core.Algorithm.
func (s *SampleAndHold) EntriesUsed() int { return s.mem.Len() }

// Capacity implements core.Algorithm.
func (s *SampleAndHold) Capacity() int { return s.mem.Capacity() }

// Threshold implements core.Algorithm.
func (s *SampleAndHold) Threshold() uint64 { return s.cfg.Threshold }

// SetThreshold implements core.Algorithm: it re-derives the sampling
// probability p = O/T from the new threshold.
func (s *SampleAndHold) SetThreshold(t uint64) {
	if t < 1 {
		t = 1
	}
	s.cfg.Threshold = t
	s.setProbability()
	s.tel.SetThreshold(t)
}

// Mem implements core.Algorithm.
func (s *SampleAndHold) Mem() *memmodel.Counter { return &s.cost }

// EntriesRejected implements core.MemoryPressure.
func (s *SampleAndHold) EntriesRejected() uint64 { return s.mem.Rejected() }

// Telemetry implements core.Instrumented.
func (s *SampleAndHold) Telemetry() *telemetry.Algorithm { return &s.tel }

// SamplingProbability returns the current per-byte sampling probability.
func (s *SampleAndHold) SamplingProbability() float64 { return s.p }
