package pipeline

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/multistage"
	"repro/internal/core/sampleandhold"
	"repro/internal/exact"
	"repro/internal/flow"
	"repro/internal/trace"
)

func shConfig(entries int) func(int) (core.Algorithm, error) {
	return func(shard int) (core.Algorithm, error) {
		return sampleandhold.New(sampleandhold.Config{
			Entries:      entries,
			Threshold:    10,
			Oversampling: 10, // p = 1: exact tracking
			Seed:         int64(shard),
		})
	}
}

func testTrace(nFlows, pkts int, intervals int) (*trace.SliceSource, trace.Meta) {
	meta := trace.Meta{
		Name:            "pipe",
		LinkBytesPerSec: 1e8,
		Interval:        time.Second,
		Intervals:       intervals,
	}
	rng := rand.New(rand.NewSource(1))
	var ps []flow.Packet
	for iv := 0; iv < intervals; iv++ {
		base := time.Duration(iv) * time.Second
		for i := 0; i < pkts; i++ {
			ps = append(ps, flow.Packet{
				Time:  base + time.Duration(i)*time.Microsecond,
				Size:  uint32(rng.Intn(1460) + 40),
				SrcIP: uint32(rng.Intn(nFlows)),
				DstIP: 1, Proto: 6,
			})
		}
	}
	return trace.NewSliceSource(meta, ps), meta
}

// TestConfigValidate rejects each invalid field on its own, naming the
// field in the module-wide cfgerr shape "traffic: pipeline: <field>: ...".
func TestConfigValidate(t *testing.T) {
	good := Config{Shards: 4, QueueDepth: 64, NewAlgorithm: shConfig(16), Definition: flow.FiveTuple{}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Shards", func(c *Config) { c.Shards = 0 }},
		{"QueueDepth", func(c *Config) { c.QueueDepth = 0 }},
		{"BatchSize", func(c *Config) { c.BatchSize = -1 }},
		{"Overload", func(c *Config) { c.Overload = Degrade + 1 }},
		{"DegradeFraction", func(c *Config) { c.DegradeFraction = 1 }},
		{"NewAlgorithm", func(c *Config) { c.NewAlgorithm = nil }},
		{"Definition", func(c *Config) { c.Definition = nil }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := good
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if prefix := "traffic: pipeline: " + tc.field + ": "; !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("error %q, want prefix %q", err, prefix)
			}
			if _, err := New(cfg); err == nil {
				t.Error("New accepted it")
			}
		})
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with zero config succeeded")
	}
}

// TestMatchesExactOracle: with p=1 sample and hold and ample memory, the
// sharded pipeline's merged report equals exact per-flow counting.
func TestMatchesExactOracle(t *testing.T) {
	src, _ := testTrace(200, 5000, 2)
	p, err := New(Config{
		Shards:       4,
		QueueDepth:   256,
		NewAlgorithm: shConfig(1000),
		Definition:   flow.FiveTuple{},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	oracle := exact.New(flow.FiveTuple{})
	var truths []map[flow.Key]uint64
	tee := trace.FuncConsumer{
		OnPacket: func(pk *flow.Packet) {
			oracle.Packet(pk)
			p.Packet(pk)
		},
		OnEndInterval: func(i int) {
			truths = append(truths, oracle.Snapshot())
			oracle.Reset()
			p.EndInterval(i)
		},
	}
	if _, err := trace.Replay(src, tee); err != nil {
		t.Fatal(err)
	}
	reports := p.Reports()
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for i, r := range reports {
		if len(r.Estimates) != len(truths[i]) {
			t.Fatalf("interval %d: %d estimates, %d true flows", i, len(r.Estimates), len(truths[i]))
		}
		for _, e := range r.Estimates {
			if truths[i][e.Key] != e.Bytes {
				t.Fatalf("interval %d flow %v: %d, want %d", i, e.Key, e.Bytes, truths[i][e.Key])
			}
		}
	}
}

// TestFlowsNeverSplitAcrossShards: every flow's estimates come from exactly
// one shard, so no flow is double-reported.
func TestFlowsNeverSplitAcrossShards(t *testing.T) {
	src, _ := testTrace(100, 3000, 1)
	p, err := New(Config{
		Shards:       8,
		QueueDepth:   128,
		NewAlgorithm: shConfig(1000),
		Definition:   flow.FiveTuple{},
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := trace.Replay(src, p); err != nil {
		t.Fatal(err)
	}
	seen := map[flow.Key]int{}
	for _, e := range p.Reports()[0].Estimates {
		seen[e.Key]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("flow %v reported %d times", k, n)
		}
	}
	// Work actually spread across shards.
	nonEmpty := 0
	for _, n := range p.ShardCounts()[0] {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("only %d shards did any work", nonEmpty)
	}
}

// TestMultistageNoFalseNegativesSharded: the per-shard filters keep the
// paper's guarantee after merging.
func TestMultistageNoFalseNegativesSharded(t *testing.T) {
	const threshold = 50000
	src, _ := testTrace(300, 20000, 1)
	p, err := New(Config{
		Shards:     4,
		QueueDepth: 256,
		NewAlgorithm: func(shard int) (core.Algorithm, error) {
			return multistage.New(multistage.Config{
				Stages: 3, Buckets: 64, Entries: 100000,
				Threshold: threshold, Conservative: true,
				Seed: int64(shard) + 10,
			})
		},
		Definition: flow.FiveTuple{},
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	oracle := exact.New(flow.FiveTuple{})
	tee := trace.FuncConsumer{
		OnPacket: func(pk *flow.Packet) {
			oracle.Packet(pk)
			p.Packet(pk)
		},
		OnEndInterval: p.EndInterval,
	}
	if _, err := trace.Replay(src, tee); err != nil {
		t.Fatal(err)
	}
	reported := map[flow.Key]bool{}
	for _, e := range p.Reports()[0].Estimates {
		reported[e.Key] = true
	}
	for k, bytes := range oracle.Snapshot() {
		if bytes >= threshold && !reported[k] {
			t.Errorf("flow %v with %d bytes missed by sharded filter", k, bytes)
		}
	}
}

func TestEntriesUsedAndClose(t *testing.T) {
	p, err := New(Config{
		Shards:       2,
		QueueDepth:   16,
		NewAlgorithm: shConfig(100),
		Definition:   flow.FiveTuple{},
	})
	if err != nil {
		t.Fatal(err)
	}
	pk := flow.Packet{Size: 100, SrcIP: 1, DstIP: 2, Proto: 6}
	p.Packet(&pk)
	p.EndInterval(0) // barrier: lane has processed the packet
	if got := len(p.Reports()[0].Estimates); got != 1 {
		t.Errorf("estimates = %d", got)
	}
	p.Close()
	p.Close() // idempotent
}

func BenchmarkPipelineThroughput(b *testing.B) {
	p, err := New(Config{
		Shards:       4,
		QueueDepth:   1024,
		NewAlgorithm: shConfig(4096),
		Definition:   flow.FiveTuple{},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pk := flow.Packet{Size: 1000, DstIP: 2, Proto: 6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.SrcIP = uint32(i % 10000)
		p.Packet(&pk)
	}
	b.StopTimer()
	p.EndInterval(0)
}

func TestEntriesUsedSumsLanes(t *testing.T) {
	p, err := New(Config{
		Shards:       4,
		QueueDepth:   64,
		NewAlgorithm: shConfig(100),
		Definition:   flow.FiveTuple{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 40; i++ {
		pk := flow.Packet{Size: 100, SrcIP: uint32(i), DstIP: 2, Proto: 6}
		p.Packet(&pk)
	}
	p.EndInterval(0) // barrier so lanes have drained
	// p=1 sampling with Preserve off: entries were reported then cleared.
	if got := p.EntriesUsed(); got != 0 {
		t.Errorf("EntriesUsed after interval = %d", got)
	}
	for i := 0; i < 7; i++ {
		pk := flow.Packet{Size: 100, SrcIP: uint32(i), DstIP: 2, Proto: 6}
		p.Packet(&pk)
	}
	p.EndInterval(1)
	if got := len(p.Reports()[1].Estimates); got != 7 {
		t.Errorf("estimates = %d, want 7", got)
	}
}

func TestNewFailsWhenShardConstructorFails(t *testing.T) {
	calls := 0
	_, err := New(Config{
		Shards:     3,
		QueueDepth: 8,
		NewAlgorithm: func(shard int) (core.Algorithm, error) {
			calls++
			if shard == 1 {
				return nil, errShard
			}
			return shConfig(8)(shard)
		},
		Definition: flow.FiveTuple{},
	})
	if err == nil {
		t.Fatal("failing shard constructor accepted")
	}
	if calls != 2 {
		t.Errorf("constructor called %d times, want 2 (stop at failure)", calls)
	}
}

var errShard = errors.New("shard construction failed")

// TestCloseTwiceWithPendingBatches: Close must flush still-buffered packets
// to the lanes, shut down cleanly, and stay idempotent.
func TestCloseTwiceWithPendingBatches(t *testing.T) {
	p, err := New(Config{
		Shards:       2,
		QueueDepth:   4,
		BatchSize:    64,
		NewAlgorithm: shConfig(100),
		Definition:   flow.FiveTuple{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fewer packets than BatchSize: they sit in the pending batches and are
	// only delivered by Close's flush.
	for i := 0; i < 10; i++ {
		pk := flow.Packet{Size: 100, SrcIP: uint32(i), DstIP: 2, Proto: 6}
		p.Packet(&pk)
	}
	p.Close()
	if got := p.EntriesUsed(); got != 10 {
		t.Errorf("EntriesUsed after Close = %d, want 10 (pending batches flushed)", got)
	}
	p.Close() // idempotent
}

// TestNewFailsMidwayCleansUp: when a later shard's constructor fails, the
// lanes already started must be shut down (no leaked goroutines) and the
// error surfaced.
func TestNewFailsMidwayCleansUp(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := New(Config{
		Shards:     4,
		QueueDepth: 8,
		NewAlgorithm: func(shard int) (core.Algorithm, error) {
			if shard == 2 {
				return nil, errShard
			}
			return shConfig(8)(shard)
		},
		Definition: flow.FiveTuple{},
	})
	if !errors.Is(err, errShard) {
		t.Fatalf("err = %v, want wrapped errShard", err)
	}
	// New's internal Close waits for started lanes, so by the time it
	// returns no lane goroutines may remain. Allow the runtime a moment to
	// reap exited goroutines before declaring a leak.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before New, %d after failed New", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchedMatchesPerPacketPipeline: lane batching must not change the
// merged reports. Run with -race this also exercises the batch-buffer
// handoff between the producer and the lane goroutines.
func TestBatchedMatchesPerPacketPipeline(t *testing.T) {
	src, _ := testTrace(150, 4000, 3)
	run := func(batchSize int) ([]core.IntervalReport, [][]int) {
		src.Reset()
		p, err := New(Config{
			Shards:       4,
			QueueDepth:   16,
			BatchSize:    batchSize,
			NewAlgorithm: shConfig(1000),
			Definition:   flow.FiveTuple{},
			Seed:         5,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := trace.Replay(src, p); err != nil {
			t.Fatal(err)
		}
		return p.Reports(), p.ShardCounts()
	}
	perPacket, perPacketShards := run(1)
	// 48 does not divide the per-interval packet count, so EndInterval's
	// partial-batch flush is exercised at every boundary.
	batched, batchedShards := run(48)
	if len(perPacket) != len(batched) {
		t.Fatalf("report counts differ: %d vs %d", len(perPacket), len(batched))
	}
	for i := range perPacket {
		a, b := perPacket[i], batched[i]
		if len(a.Estimates) != len(b.Estimates) {
			t.Fatalf("interval %d: %d estimates per-packet, %d batched", i, len(a.Estimates), len(b.Estimates))
		}
		for j := range a.Estimates {
			if a.Estimates[j] != b.Estimates[j] {
				t.Fatalf("interval %d estimate %d: %+v vs %+v", i, j, a.Estimates[j], b.Estimates[j])
			}
		}
		for s := range perPacketShards[i] {
			if perPacketShards[i][s] != batchedShards[i][s] {
				t.Fatalf("interval %d shard %d: %d vs %d estimates", i, s, perPacketShards[i][s], batchedShards[i][s])
			}
		}
	}
}

// TestPacketBatchDelivery: the BatchConsumer entry point distributes a burst
// across lanes exactly like per-packet delivery.
func TestPacketBatchDelivery(t *testing.T) {
	mk := func() *Pipeline {
		p, err := New(Config{
			Shards:       4,
			QueueDepth:   16,
			BatchSize:    8,
			NewAlgorithm: shConfig(1000),
			Definition:   flow.FiveTuple{},
			Seed:         5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var pkts []flow.Packet
	for i := 0; i < 100; i++ {
		pkts = append(pkts, flow.Packet{Size: 100, SrcIP: uint32(i % 37), DstIP: 2, Proto: 6})
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	for i := range pkts {
		a.Packet(&pkts[i])
	}
	a.EndInterval(0)
	b.PacketBatch(pkts)
	b.EndInterval(0)
	ra, rb := a.Reports()[0], b.Reports()[0]
	if len(ra.Estimates) != len(rb.Estimates) {
		t.Fatalf("%d vs %d estimates", len(ra.Estimates), len(rb.Estimates))
	}
	for j := range ra.Estimates {
		if ra.Estimates[j] != rb.Estimates[j] {
			t.Fatalf("estimate %d: %+v vs %+v", j, ra.Estimates[j], rb.Estimates[j])
		}
	}
}

func TestValidateRejectsNegativeBatchSize(t *testing.T) {
	cfg := Config{Shards: 1, QueueDepth: 1, BatchSize: -1, NewAlgorithm: shConfig(8), Definition: flow.FiveTuple{}}
	if cfg.Validate() == nil {
		t.Error("negative BatchSize accepted")
	}
}
