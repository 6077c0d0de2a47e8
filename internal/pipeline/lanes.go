// Package pipeline is the sharded measurement device: one algorithm
// instance per lane, the way a multi-queue NIC (RSS) shards packets across
// cores. Flows are hashed to shards, each shard runs its own independent
// algorithm instance, and interval reports are merged. Because sharding is
// per flow, each flow is measured by exactly one instance and the merged
// report has the same per-flow guarantees (lower bounds, no false negatives
// at the per-shard threshold) as a single instance.
//
// Packets are handed to lanes in batches, NIC-burst style: the producer
// buffers up to BatchSize (key, size) pairs per lane and hands the batch to
// the lane worker over a bounded SPSC ring (internal/spsc) — the handoff is
// one slice write plus one atomic release-store, no lock and no scheduler
// wake while both sides are busy. Batch buffers are recycled through a
// second, reverse-direction SPSC ring per lane, so the steady-state packet
// loop allocates nothing. A multi-shard burst is first partitioned into
// per-shard sub-batches in grow-only scratch — the shard is picked from the
// same per-packet key hash (flowmem.Hash) the lanes' kernels probe their
// flow memory with, so sharding adds one cheap remix per packet instead of a
// second hash pass, and the hashes ride along with the batch into
// core.ProcessBatch. Partial batches are flushed at
// interval boundaries, so merged reports are bit-identical to an unbatched
// run.
//
// Overload: when a lane's queue is full, Config.Overload selects what the
// producer does — Block (wait, lossless), DropNewest/DropOldest (shed a
// whole batch) or Degrade (probabilistically subsample the batch). Failure:
// every lane worker runs under a supervisor; a panicking algorithm is
// restarted (RestartOnPanic) or quarantined, and EndInterval/Close always
// terminate.
package pipeline

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cfgerr"
	"repro/internal/core"
	"repro/internal/core/flowmem"
	"repro/internal/flow"
	"repro/internal/spsc"
	"repro/internal/telemetry"
)

// DefaultBatchSize is the per-lane batch size used when
// Config.BatchSize is zero: big enough to amortize a ring handoff,
// small enough that a lane's working set of buffered keys stays
// cache-resident.
const DefaultBatchSize = 64

// OverloadPolicy selects the producer's behavior when a lane queue is full.
type OverloadPolicy int

const (
	// Block waits for the lane to drain: lossless, but a slow lane
	// backpressures the producer (and, behind it, the link). This is the
	// default and the only policy that never loses packets.
	Block OverloadPolicy = iota
	// DropNewest sheds the incoming batch and keeps the queued ones: the
	// oldest buffered traffic survives, the burst that overflowed is lost.
	DropNewest
	// DropOldest pops the oldest queued batch to make room for the new one:
	// the freshest traffic survives, which keeps reports current under
	// sustained overload.
	DropOldest
	// Degrade subsamples the overflowing batch instead of dropping it: each
	// packet survives with probability Config.DegradeFraction, so —
	// sample-and-hold style — large flows keep being observed in rough
	// proportion while total lane work shrinks. The thinned batch is then
	// delivered (blocking if the queue is still full).
	Degrade
)

// String names the policy.
func (p OverloadPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	case Degrade:
		return "degrade"
	default:
		return "unknown"
	}
}

// OverloadPolicyByName maps the CLI spellings to policies.
func OverloadPolicyByName(name string) (OverloadPolicy, error) {
	switch name {
	case "", "block":
		return Block, nil
	case "drop-newest":
		return DropNewest, nil
	case "drop-oldest":
		return DropOldest, nil
	case "degrade":
		return Degrade, nil
	default:
		return 0, fmt.Errorf("pipeline: unknown overload policy %q (want block, drop-newest, drop-oldest, degrade)", name)
	}
}

// DefaultDegradeFraction is the Degrade policy's per-packet keep
// probability when Config.DegradeFraction is zero.
const DefaultDegradeFraction = 0.5

// Config configures a Pipeline.
type Config struct {
	// Shards is the number of parallel lanes.
	Shards int
	// QueueDepth is each lane's ring capacity, in batches.
	QueueDepth int
	// BatchSize is the number of packets buffered per lane before the batch
	// is handed over (one ring operation per batch). Zero selects
	// DefaultBatchSize; 1 hands over every packet individually, which is
	// the unbatched per-packet behavior.
	BatchSize int
	// Overload selects what the producer does when a lane's queue is full;
	// the zero value is Block (lossless backpressure).
	Overload OverloadPolicy
	// DegradeFraction is the Degrade policy's per-packet keep probability
	// in (0, 1); zero selects DefaultDegradeFraction. Ignored by the other
	// policies.
	DegradeFraction float64
	// RestartOnPanic restarts a panicking lane with a fresh algorithm from
	// NewAlgorithm instead of quarantining it. The fresh instance starts
	// with empty flow memory, so the lane's current interval undercounts;
	// the lane's Restarts counter records that the report is approximate.
	RestartOnPanic bool
	// NewAlgorithm builds one lane's algorithm instance. Instances must be
	// independent (separate state); shard is 0-based. With RestartOnPanic
	// it is also called from lane worker goroutines after a panic, so it
	// must be safe for concurrent use.
	NewAlgorithm func(shard int) (core.Algorithm, error)
	// Definition extracts flow keys; sharding hashes these keys.
	Definition flow.Definition
	// Seed seeds the Degrade subsampler. Shard selection is derived from
	// the packet's flow-memory key hash (see shardOf) and is not seeded:
	// it is a fixed, deterministic function of the flow key.
	Seed int64
	// DiscardReports stops the pipeline from accumulating interval reports
	// in memory; reports still reach OnReport. Set it for long-lived
	// pipelines (live dashboards) where only the hook consumes them.
	DiscardReports bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return cfgerr.New("pipeline", "Shards", "must be at least 1, got %d", c.Shards)
	}
	if c.QueueDepth < 1 {
		return cfgerr.New("pipeline", "QueueDepth", "must be at least 1, got %d", c.QueueDepth)
	}
	if c.BatchSize < 0 {
		return cfgerr.New("pipeline", "BatchSize", "must not be negative, got %d", c.BatchSize)
	}
	if c.Overload < Block || c.Overload > Degrade {
		return cfgerr.New("pipeline", "Overload", "unknown policy %d", int(c.Overload))
	}
	if c.DegradeFraction < 0 || c.DegradeFraction >= 1 {
		return cfgerr.New("pipeline", "DegradeFraction", "%g outside [0, 1)", c.DegradeFraction)
	}
	if c.NewAlgorithm == nil {
		return cfgerr.New("pipeline", "NewAlgorithm", "is required")
	}
	if c.Definition == nil {
		return cfgerr.New("pipeline", "Definition", "is required")
	}
	return nil
}

// shardOf maps a packet's flow-memory key hash to a lane. The hash is put
// through a full avalanche remix before the range reduction so the shard
// index draws on bits independent of the ones the lane's own structures
// consume — flowmem indexes with the low bits of the same hash, and the
// filter families fold their (differently computed) hashes through the high
// bits. Without the remix each lane's flows would concentrate in a slice of
// its hash table, inflating collisions.
func shardOf(h uint64, shards uint32) int {
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int((h >> 32) * uint64(shards) >> 32)
}

// batch is one lane's burst of packets, ready for core.ProcessBatch. On a
// multi-shard engine hashes[i] carries flowmem.Hash(keys[i]), the shard
// hash, so the lane's kernel skips rehashing; a single lane computes no
// hash and leaves hashes empty.
type batch struct {
	keys   []flow.Key
	sizes  []uint32
	hashes []uint64
}

func newBatch(size int) *batch {
	return &batch{
		keys:   make([]flow.Key, 0, size),
		sizes:  make([]uint32, 0, size),
		hashes: make([]uint64, 0, size),
	}
}

func (b *batch) reset() {
	b.keys = b.keys[:0]
	b.sizes = b.sizes[:0]
	b.hashes = b.hashes[:0]
}

func (b *batch) bytes() uint64 {
	var total uint64
	for _, s := range b.sizes {
		total += uint64(s)
	}
	return total
}

type op struct {
	b *batch
	// flush, when non-nil, asks the lane to close the interval and reply
	// with its estimates.
	flush chan []core.Estimate
}

// lane bundles one shard's rings, telemetry and algorithm. The algorithm
// is held behind an atomic pointer because a supervised restart swaps it
// from the lane worker goroutine while the producer may be reading
// Threshold/EntriesUsed/Stats.
type lane struct {
	// ring carries ops producer→worker; free carries recycled batch
	// buffers worker→producer. Both are strictly single-producer/
	// single-consumer: the only cross-role touch is the producer stealing
	// the oldest op under DropOldest, which the ring's head CAS arbitrates.
	ring *spsc.Ring[op]
	free *spsc.Ring[*batch]
	tel  *telemetry.Lane
	alg  atomic.Pointer[core.Algorithm]
	// rng is the producer-side xorshift state for Degrade subsampling;
	// only the producer goroutine touches it.
	rng uint64
	// spare is the producer-owned stack of buffers reclaimed from batches
	// the producer itself evicted (DropOldest): they cannot go back through
	// the free ring — the worker is that ring's only producer — so the
	// producer keeps them and reuses them before popping the free ring.
	spare []*batch
	// arena is the lane's grow-only report arena: flush replies are built
	// into it (core.AppendEstimates) instead of a fresh slice per interval.
	// The worker writes it only while servicing a flush op and the producer
	// reads the reply before issuing the next flush, so the reply channel's
	// handoff is the only synchronization needed.
	arena []core.Estimate
	// reply is the lane's reusable flush-reply channel (buffered, so the
	// worker never blocks answering).
	reply chan []core.Estimate
}

func (ln *lane) loadAlg() core.Algorithm { return *ln.alg.Load() }

func (ln *lane) storeAlg(a core.Algorithm) { ln.alg.Store(&a) }

// shedBatch counts b as shed and recycles its buffer; worker side only (the
// free ring's producer role).
func (ln *lane) shedBatch(b *batch) {
	ln.tel.ObserveShed(1, len(b.keys), b.bytes())
	b.reset()
	ln.free.Push(b)
}

// xorshift64star advances the lane's subsampling RNG.
func (ln *lane) next() uint64 {
	x := ln.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	ln.rng = x
	return x * 0x2545F4914F6CDD1D
}

// shardScratch is one shard's grow-only partition scratch: a burst is
// split into these sub-batches before handoff, so the per-packet loop only
// appends and the per-lane pending batches receive bulk copies.
type shardScratch struct {
	keys   []flow.Key
	sizes  []uint32
	hashes []uint64
}

// Pipeline is the sharded measurement device: one algorithm instance per
// lane behind a flow-hashing producer, with interval reports merged across
// lanes exactly as a single Device would report them.
//
// The producer side (Packet, PacketBatch, EndInterval, Close) must be
// driven from a single goroutine, like any trace.Consumer; Stats and Health
// may be called from any goroutine.
type Pipeline struct {
	// OnReport, when set, receives each merged interval report on the
	// producer goroutine as EndInterval closes it — the same hook a Device
	// offers. The report's estimates are the pipeline's own retained slice
	// and must be treated as read-only. Set it before traffic flows.
	OnReport func(core.IntervalReport)

	cfg       Config
	batchSize int
	// degradeKeep is the Degrade keep probability as a uint64 comparison
	// threshold (keep when rng <= degradeKeep).
	degradeKeep uint64
	// shards mirrors cfg.Shards; 1 selects the single-lane packet path,
	// which skips shard selection entirely (every flow maps to lane 0, so
	// the hash would be pure overhead on the hot path). With more shards
	// the shard hash ships with each batch, so lane kernels never rehash —
	// one hash per packet across the whole pipeline.
	shards uint32
	lanes  []*lane
	// scratch is the per-shard partition scratch for PacketBatch.
	scratch []shardScratch
	// gather is EndInterval's reusable per-lane reply scratch, collected
	// before the merged report is allocated at its exact final size.
	gather [][]core.Estimate
	// pending holds the batch currently being filled for each lane. Each
	// lane owns QueueDepth+2 buffers total (queue + in-processing +
	// being-filled), so a blocking pop from free can always be satisfied.
	pending []*batch
	wg      sync.WaitGroup
	reports []core.IntervalReport
	// last is the most recently closed interval's report, kept whatever
	// DiscardReports says, so an A/B race can score both sides right after
	// their EndInterval calls return. Its estimates may alias mergeArena and
	// are then valid until the next EndInterval.
	last core.IntervalReport
	// perShard[i][s] is the number of estimates shard s contributed to
	// interval report i.
	perShard [][]int
	// shardScratch is the per-interval shard-count scratch, reused across
	// intervals and copied out only when reports are retained.
	shardCounts []int
	// mergeArena is the merged-estimate arena used when reports are
	// discarded and no OnReport hook is set — the one case where the
	// estimates cannot outlive the next interval, so the report path runs
	// allocation-free.
	mergeArena []core.Estimate
	// reportCount mirrors the number of produced reports for concurrent
	// Stats readers (and keeps counting when DiscardReports is set).
	reportCount atomic.Int64
	closed      bool
	// exportTel, when set, is the export path's counters, included in Stats
	// and Health alongside the lane counters.
	exportTel *telemetry.Export
	// pressure, when set, reports export-path overload (the device spool
	// above its high-water mark). Under the Degrade policy the producer
	// subsamples every batch while pressure holds, shedding load at the
	// measurement input — where the paper's sampling semantics make the
	// loss unbiased — instead of letting the spool shed whole reports.
	pressure func() bool
}

// New validates cfg and starts the lanes. On error nothing is left
// running. Close the pipeline when done.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, batchSize: cfg.BatchSize, shards: uint32(cfg.Shards)}
	if p.batchSize == 0 {
		p.batchSize = DefaultBatchSize
	}
	keep := cfg.DegradeFraction
	if keep == 0 {
		keep = DefaultDegradeFraction
	}
	p.degradeKeep = uint64(keep * float64(^uint64(0)))
	if cfg.Shards > 1 {
		p.scratch = make([]shardScratch, cfg.Shards)
	}
	p.shardCounts = make([]int, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		alg, err := cfg.NewAlgorithm(i)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
		}
		ln := &lane{
			ring:  spsc.New[op](cfg.QueueDepth),
			free:  spsc.New[*batch](cfg.QueueDepth + 2),
			tel:   &telemetry.Lane{},
			rng:   uint64(cfg.Seed)*0x9E3779B97F4A7C15 + uint64(i) + 1,
			spare: make([]*batch, 0, 4),
			reply: make(chan []core.Estimate, 1),
		}
		for k := 0; k < cfg.QueueDepth+1; k++ {
			ln.free.TryPush(newBatch(p.batchSize))
		}
		ln.storeAlg(alg)
		p.lanes = append(p.lanes, ln)
		p.pending = append(p.pending, newBatch(p.batchSize))
		p.wg.Add(1)
		go p.run(i, ln)
	}
	return p, nil
}

// SetPressure installs the export-path overload probe consulted by the
// Degrade policy (typically Exporter.Overloaded). Call before traffic
// flows.
func (p *Pipeline) SetPressure(f func() bool) { p.pressure = f }

// SetExportTelemetry attaches an export path's counters to the pipeline's
// snapshots (and thereby its Health). Call before traffic flows.
func (p *Pipeline) SetExportTelemetry(t *telemetry.Export) { p.exportTel = t }

// run is the supervised lane worker: it processes ops until the ring is
// closed and drained, recovering panics. After a panic the lane is
// restarted with a fresh algorithm (Config.RestartOnPanic) or
// quarantined — still draining the queue so the producer, EndInterval and
// Close never block on it, but shedding every batch and answering flushes
// with an empty report.
func (p *Pipeline) run(shard int, ln *lane) {
	defer p.wg.Done()
	quarantined := false
	for {
		o, ok := ln.ring.Pop()
		if !ok {
			return
		}
		if quarantined {
			p.shedOp(ln, o)
			continue
		}
		if p.processOp(ln, o) {
			continue
		}
		// The op panicked (processOp recovered, replied, recycled).
		if p.cfg.RestartOnPanic {
			if alg, err := p.cfg.NewAlgorithm(shard); err == nil {
				ln.storeAlg(alg)
				ln.tel.ObserveRestart()
				ln.tel.SetHealth(telemetry.LaneRestarted)
				continue
			}
		}
		quarantined = true
		ln.tel.SetHealth(telemetry.LaneQuarantined)
	}
}

// processOp runs one op under panic recovery. On panic it counts the
// panic, synthesizes an empty flush reply (so EndInterval never deadlocks),
// sheds the batch (so its buffer returns to the free ring and the producer
// never starves), and reports ok=false so the supervisor reacts.
func (p *Pipeline) processOp(ln *lane, o op) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			ln.tel.ObservePanic()
			if o.flush != nil {
				o.flush <- nil
			}
			if o.b != nil {
				ln.shedBatch(o.b)
			}
		}
	}()
	if o.flush != nil {
		ln.arena = core.AppendEstimates(ln.loadAlg(), ln.arena[:0])
		o.flush <- ln.arena
		return true
	}
	hashes := o.b.hashes
	if len(hashes) != len(o.b.keys) {
		hashes = nil // single lane: no shard hash was computed
	}
	core.ProcessBatch(ln.loadAlg(), hashes, o.b.keys, o.b.sizes)
	o.b.reset()
	ln.free.Push(o.b)
	return true
}

// shedOp services an op in quarantine: batches are counted as shed and
// recycled, flushes get an empty reply.
func (p *Pipeline) shedOp(ln *lane, o op) {
	if o.flush != nil {
		o.flush <- nil
		return
	}
	ln.shedBatch(o.b)
}

// enqueue appends one packet (with its shard hash on a multi-shard engine)
// to its lane's pending batch and hands the batch over when full.
func (p *Pipeline) enqueue(lane int, key flow.Key, size uint32, hash uint64) {
	b := p.pending[lane]
	b.keys = append(b.keys, key)
	b.sizes = append(b.sizes, size)
	if p.shards > 1 {
		b.hashes = append(b.hashes, hash)
	}
	if len(b.keys) >= p.batchSize {
		p.flushLane(lane)
	}
}

// flushLane hands the lane's pending batch to its worker (a no-op when the
// batch is empty) and replaces it with a recycled buffer. A full lane queue
// is resolved by the configured overload policy; with Block (and Degrade,
// which delivers its thinned batch) the wait is counted as a flush stall.
func (p *Pipeline) flushLane(i int) {
	b := p.pending[i]
	if len(b.keys) == 0 {
		return
	}
	ln := p.lanes[i]
	// Export-path backpressure: while the spool sits above its high-water
	// mark, the Degrade policy thins every batch at the input — the lane
	// queue being momentarily empty doesn't mean downstream has capacity.
	if p.cfg.Overload == Degrade && p.pressure != nil && p.pressure() {
		if p.degradeBatch(ln, b) == 0 {
			b.reset()
			return
		}
	}
	n := len(b.keys)
	stalled := false
	if !ln.ring.TryPush(op{b: b}) {
		// Queue full: the lane is saturated. Apply the overload policy.
		switch p.cfg.Overload {
		case Block:
			stalled = true
			ln.ring.Push(op{b: b})
		case DropNewest:
			ln.tel.ObserveShed(1, n, b.bytes())
			b.reset()
			return // keep the same buffer as pending; nothing was handed over
		case DropOldest:
			p.dropOldest(ln, b)
		case Degrade:
			stalled = true
			if p.degradeBatch(ln, b) == 0 {
				b.reset()
				return // whole batch subsampled away; keep the buffer
			}
			n = len(b.keys)
			ln.ring.Push(op{b: b})
		}
	}
	// Replace the pending buffer: producer-reclaimed spares first, then the
	// free ring. An empty free ring means the lane has not returned a
	// buffer yet: the producer is about to block on it — counted, like a
	// queue-full wait, as a flush stall.
	if k := len(ln.spare); k > 0 {
		p.pending[i] = ln.spare[k-1]
		ln.spare = ln.spare[:k-1]
	} else {
		stalled = stalled || ln.free.Len() == 0
		nb, _ := ln.free.Pop()
		p.pending[i] = nb
	}
	ln.tel.ObserveBatch(n, ln.ring.Len(), stalled)
}

// degradeBatch subsamples b in place with the lane's RNG at the configured
// keep probability, counts the loss, and returns how many packets survive.
func (p *Pipeline) degradeBatch(ln *lane, b *batch) int {
	var dropped int
	var droppedBytes uint64
	withHashes := len(b.hashes) == len(b.keys)
	w := 0
	for k := range b.keys {
		if ln.next() <= p.degradeKeep {
			b.keys[w] = b.keys[k]
			b.sizes[w] = b.sizes[k]
			if withHashes {
				b.hashes[w] = b.hashes[k]
			}
			w++
		} else {
			dropped++
			droppedBytes += uint64(b.sizes[k])
		}
	}
	b.keys = b.keys[:w]
	b.sizes = b.sizes[:w]
	if withHashes {
		b.hashes = b.hashes[:w]
	}
	ln.tel.ObserveDegraded(dropped, droppedBytes)
	return w
}

// dropOldest delivers b by evicting queued batches, oldest first, until the
// push succeeds. The eviction is the ring's Steal — a head CAS the consumer
// also contends on, so whichever side wins, the batch is consumed exactly
// once. Evicted batches are counted as shed; their buffers stay with the
// producer (the spare stack) because the free ring's producer role belongs
// to the worker. The queue can only hold batch ops here: EndInterval waits
// for every flush reply before the producer continues, so no flush op is
// ever buffered when flushLane runs — the guard is belt and braces.
func (p *Pipeline) dropOldest(ln *lane, b *batch) {
	for !ln.ring.TryPush(op{b: b}) {
		old, ok := ln.ring.Steal()
		if !ok {
			// The worker drained the queue between probes; retry the send.
			continue
		}
		if old.flush != nil {
			old.flush <- nil
			continue
		}
		ln.tel.ObserveShed(1, len(old.b.keys), old.b.bytes())
		old.b.reset()
		ln.spare = append(ln.spare, old.b)
	}
}

// Packet hashes the packet's flow to a lane and buffers it in the lane's
// pending batch. A single-lane engine skips the shard hash — every flow
// maps to lane 0.
func (p *Pipeline) Packet(pkt *flow.Packet) {
	key := p.cfg.Definition.Key(pkt)
	if p.shards == 1 {
		p.enqueue(0, key, pkt.Size, 0)
		return
	}
	h := flowmem.Hash(key)
	p.enqueue(shardOf(h, p.shards), key, pkt.Size, h)
}

// PacketBatch keys and distributes a whole burst to the per-lane batches.
// The single-lane path appends straight into lane 0's pending batch with
// the batch pointer held in a register — no shard hash, no per-packet
// pending-slot load. The multi-shard path partitions the burst into
// per-shard sub-batches in grow-only scratch — one key hash per packet
// picks the shard and rides along as the lane kernels' flow memory probe
// hash — and then bulk-appends each sub-batch to its lane.
func (p *Pipeline) PacketBatch(pkts []flow.Packet) {
	if p.shards == 1 {
		b := p.pending[0]
		for i := range pkts {
			b.keys = append(b.keys, p.cfg.Definition.Key(&pkts[i]))
			b.sizes = append(b.sizes, pkts[i].Size)
			if len(b.keys) >= p.batchSize {
				p.flushLane(0)
				b = p.pending[0]
			}
		}
		return
	}
	def := p.cfg.Definition
	scratch := p.scratch
	for s := range scratch {
		sc := &scratch[s]
		sc.keys = sc.keys[:0]
		sc.sizes = sc.sizes[:0]
		sc.hashes = sc.hashes[:0]
	}
	for i := range pkts {
		key := def.Key(&pkts[i])
		h := flowmem.Hash(key)
		sc := &scratch[shardOf(h, p.shards)]
		sc.keys = append(sc.keys, key)
		sc.sizes = append(sc.sizes, pkts[i].Size)
		sc.hashes = append(sc.hashes, h)
	}
	for s := range scratch {
		if len(scratch[s].keys) > 0 {
			p.appendShard(s, &scratch[s])
		}
	}
}

// appendShard bulk-appends one shard's partitioned sub-batch to its lane's
// pending batch, handing over full batches as they fill.
func (p *Pipeline) appendShard(i int, sc *shardScratch) {
	keys, sizes, hashes := sc.keys, sc.sizes, sc.hashes
	b := p.pending[i]
	for len(keys) > 0 {
		n := p.batchSize - len(b.keys)
		if n > len(keys) {
			n = len(keys)
		}
		b.keys = append(b.keys, keys[:n]...)
		b.sizes = append(b.sizes, sizes[:n]...)
		b.hashes = append(b.hashes, hashes[:n]...)
		keys = keys[n:]
		sizes = sizes[n:]
		hashes = hashes[n:]
		if len(b.keys) >= p.batchSize {
			p.flushLane(i)
			b = p.pending[i]
		}
	}
}

// EndInterval flushes every lane's partial batch, barriers all lanes (each
// lane drains its queue before answering, because the ring is FIFO) and
// merges their reports. A quarantined lane answers with an empty report
// instead of deadlocking, so EndInterval always terminates.
func (p *Pipeline) EndInterval(interval int) {
	// The report's Threshold and EntriesUsed describe the interval being
	// closed, so they are captured before the flush resets per-lane state.
	// Reading lane algorithms is safe here: EntriesUsed and Threshold only
	// change on the lane goroutine while it processes ops, and the previous
	// interval's flush replies ordered all of those writes before this call.
	// (For the interval being closed the producer-side counters are exact
	// because every batch below was flushed before the lanes answered.)
	threshold := p.lanes[0].loadAlg().Threshold()
	for i, ln := range p.lanes {
		p.flushLane(i)
		ln.ring.Push(op{flush: ln.reply})
		ln.tel.ObserveFlush()
	}
	// Collect every lane's reply (a view of its report arena, valid until
	// that lane's next flush) before sizing the merged report — the shard
	// counts land in reusable scratch and are copied out only if retained.
	r := core.IntervalReport{Interval: interval, Threshold: threshold}
	total := 0
	p.gather = p.gather[:0]
	for i, ln := range p.lanes {
		ests := <-ln.reply
		p.shardCounts[i] = len(ests)
		total += len(ests)
		p.gather = append(p.gather, ests)
	}
	// The merged estimates are built into the exact-size retained slice
	// when reports are kept or handed to OnReport; otherwise they are built
	// into a grow-only arena instead, making the whole interval close
	// allocation-free.
	if p.cfg.DiscardReports && p.OnReport == nil {
		r.Estimates = p.mergeArena[:0]
	} else {
		r.Estimates = make([]core.Estimate, 0, total)
	}
	for _, ests := range p.gather {
		r.Estimates = append(r.Estimates, ests...)
	}
	// A lane reports one estimate per flow-memory entry, so the estimate
	// counts sum to the flow-memory usage at the end of the interval —
	// the same quantity a single Device records as EntriesUsed.
	r.EntriesUsed = total
	// Merged estimates keep the same ordering guarantee as a single
	// device's report: descending bytes, ties by descending key.
	slices.SortFunc(r.Estimates, compareEstimates)
	if p.cfg.DiscardReports && p.OnReport == nil {
		p.mergeArena = r.Estimates[:0]
	}
	if !p.cfg.DiscardReports {
		p.reports = append(p.reports, r)
		p.perShard = append(p.perShard, slices.Clone(p.shardCounts))
	}
	p.last = r
	p.reportCount.Add(1)
	if p.OnReport != nil {
		p.OnReport(r)
	}
}

// compareEstimates orders merged estimates by descending bytes, ties broken
// by descending key — the same guarantee a single Device's report gives.
// A named comparison function keeps the sort allocation-free (a sort.Slice
// closure costs reflection and captures on every interval).
func compareEstimates(a, b core.Estimate) int {
	switch {
	case a.Bytes != b.Bytes:
		if a.Bytes > b.Bytes {
			return -1
		}
		return 1
	case a.Key.Hi != b.Key.Hi:
		if a.Key.Hi > b.Key.Hi {
			return -1
		}
		return 1
	case a.Key.Lo != b.Key.Lo:
		if a.Key.Lo > b.Key.Lo {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// Reports returns the merged interval reports (nil with DiscardReports
// set). The report type and the ordering of its estimates are identical to
// a single Device's Reports: descending bytes, ties broken by descending
// key.
func (p *Pipeline) Reports() []core.IntervalReport { return p.reports }

// ShardCounts returns, for each interval report, how many estimates each
// shard contributed.
func (p *Pipeline) ShardCounts() [][]int { return p.perShard }

// EntriesUsed sums flow-memory usage across lanes. Only meaningful between
// intervals (lanes may be mid-batch otherwise).
func (p *Pipeline) EntriesUsed() int {
	total := 0
	for _, ln := range p.lanes {
		total += ln.loadAlg().EntriesUsed()
	}
	return total
}

// Stats returns the engine's live telemetry: per-lane counters (batches
// handed over, queue high-water marks, flush stalls, shed and degraded
// traffic, panics, restarts, health) plus each lane algorithm's own
// counters. Safe to call from any goroutine while the engine is running,
// as long as every lane algorithm is instrumented (core.Instrumented — true
// for all the algorithms in this module); snapshots of uninstrumented lane
// algorithms are synthesized only between intervals and are marked Stale.
// After a supervised restart the lane's algorithm counters restart from
// zero; the lane's Restarts counter records the discontinuity.
func (p *Pipeline) Stats() telemetry.PipelineSnapshot {
	s := telemetry.PipelineSnapshot{
		Shards:  len(p.lanes),
		Reports: int(p.reportCount.Load()),
	}
	for _, ln := range p.lanes {
		s.Lanes = append(s.Lanes, ln.tel.Snapshot())
		alg := ln.loadAlg()
		if in, ok := alg.(core.Instrumented); ok {
			s.Algorithms = append(s.Algorithms, in.Telemetry().Snapshot())
		} else {
			s.Algorithms = append(s.Algorithms, telemetry.AlgorithmSnapshot{
				Name: alg.Name(), Stale: true,
			})
		}
	}
	if p.exportTel != nil {
		es := p.exportTel.Snapshot()
		s.Export = &es
	}
	return s
}

// Health grades the engine from its telemetry; see
// telemetry.PipelineSnapshot.Health. Safe from any goroutine.
func (p *Pipeline) Health() (telemetry.HealthStatus, string) {
	return p.Stats().Health()
}

// Close flushes buffered packets, stops the lanes and waits for them to
// drain. Quarantined lanes drain by shedding, so Close terminates even
// after lane failures. The pipeline must not be used afterwards; Close is
// idempotent.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for i, ln := range p.lanes {
		p.flushLane(i)
		ln.ring.Close()
	}
	p.wg.Wait()
}
