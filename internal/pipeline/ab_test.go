package pipeline

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
)

func abConfig(shards int) Config {
	return Config{
		Shards: shards, QueueDepth: 16,
		NewAlgorithm: shConfig(4096),
		Definition:   flow.FiveTuple{}, Seed: 7,
	}
}

// TestABCompare races a 1-shard and a 2-shard pipeline on one stream: each
// interval's CompareResult must arrive in interval order and equal Compare
// over the two pipelines' own retained reports.
func TestABCompare(t *testing.T) {
	ab, err := NewAB(abConfig(1), abConfig(2), 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []CompareResult
	ab.OnCompare = func(r CompareResult) { got = append(got, r) }
	src, _ := testTrace(60, 3000, 3)
	for iv := 0; iv < 3; iv++ {
		for i := 0; i < 1000; i++ {
			pk, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				ab.Packet(&pk)
			} else {
				ab.PacketBatch([]flow.Packet{pk})
			}
		}
		ab.EndInterval(iv)
	}
	ab.Close()
	ab.Close() // idempotent
	ra, rb := ab.A.Reports(), ab.B.Reports()
	if len(got) != 3 || len(ra) != 3 || len(rb) != 3 {
		t.Fatalf("%d results, %d and %d reports; want 3 each", len(got), len(ra), len(rb))
	}
	for i, res := range got {
		if want := Compare(ra[i], rb[i], 5); res != want {
			t.Errorf("interval %d: result %+v, want %+v", i, res, want)
		}
		// p=1 sample-and-hold tracks every flow exactly, so sharding must
		// not change a single estimate.
		if res.Interval != i || res.FlowsA != 60 || res.CommonFlows != 60 ||
			res.TopKOverlap != 1 || res.AvgRelDiff != 0 || res.BytesA != res.BytesB {
			t.Errorf("interval %d: exact sides disagree: %+v", i, res)
		}
	}
}

// TestABDiscardReports: with both sides discarding their reports, the
// comparison still sees each interval's reports (the merge arenas are
// valid until the next EndInterval).
func TestABDiscardReports(t *testing.T) {
	cfgA, cfgB := abConfig(2), abConfig(1)
	cfgA.DiscardReports, cfgB.DiscardReports = true, true
	ab, err := NewAB(cfgA, cfgB, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ab.Close()
	var got []CompareResult
	ab.OnCompare = func(r CompareResult) { got = append(got, r) }
	for iv := 0; iv < 2; iv++ {
		for i := 0; i < 20+iv; i++ {
			pk := flow.Packet{Size: 100, SrcIP: uint32(i), DstIP: 2, Proto: 6}
			ab.Packet(&pk)
		}
		ab.EndInterval(iv)
	}
	if ab.A.Reports() != nil || ab.B.Reports() != nil {
		t.Error("DiscardReports kept reports in memory")
	}
	if len(got) != 2 || got[1].FlowsA != 21 || got[1].CommonFlows != 21 || got[1].K != 10 {
		t.Errorf("results %+v, want 2 with 21 common flows in the second and K=10", got)
	}
}

// TestNewABSurfacesSideError: when either side cannot start, NewAB returns
// its error (after closing side A if B failed).
func TestNewABSurfacesSideError(t *testing.T) {
	bad := abConfig(1)
	bad.NewAlgorithm = func(int) (core.Algorithm, error) { return nil, errShard }
	for _, tc := range []struct {
		name string
		a, b Config
	}{
		{"a", bad, abConfig(2)},
		{"b", abConfig(2), bad},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewAB(tc.a, tc.b, 5); !errors.Is(err, errShard) {
				t.Fatalf("err = %v, want wrapped errShard", err)
			}
		})
	}
}

// TestCompare scores hand-built report pairs: flow and byte totals, the
// common-flow count, top-K overlap as a fraction of A's top K, and the mean
// relative difference over common flows (zero-byte pairs add no term).
func TestCompare(t *testing.T) {
	est := func(lo, bytes uint64) core.Estimate {
		return core.Estimate{Key: flow.Key{Lo: lo}, Bytes: bytes}
	}
	rep := func(ests ...core.Estimate) core.IntervalReport {
		return core.IntervalReport{Interval: 7, Estimates: ests}
	}
	three := rep(est(1, 300), est(2, 200), est(3, 100))
	for _, tc := range []struct {
		name string
		a, b core.IntervalReport
		k    int
		want CompareResult
	}{
		{"identical", three, three, 2, CompareResult{
			Interval: 7, FlowsA: 3, FlowsB: 3, CommonFlows: 3,
			BytesA: 600, BytesB: 600, K: 2, TopKOverlap: 1}},
		{"disjoint", rep(est(1, 300)), rep(est(2, 300)), 2, CompareResult{
			Interval: 7, FlowsA: 1, FlowsB: 1, BytesA: 300, BytesB: 300, K: 2}},
		{"empty_a", rep(), rep(est(1, 100)), 2, CompareResult{
			Interval: 7, FlowsB: 1, BytesB: 100, K: 2}},
		{"empty_b", rep(est(1, 300), est(2, 200)), rep(), 2, CompareResult{
			Interval: 7, FlowsA: 2, BytesA: 500, K: 2}},
		{"both_empty", rep(), rep(), 10, CompareResult{Interval: 7, K: 10}},
		{"k_beyond_reports", rep(est(1, 300), est(2, 200)), rep(est(2, 200), est(1, 150)), 10, CompareResult{
			Interval: 7, FlowsA: 2, FlowsB: 2, CommonFlows: 2,
			BytesA: 500, BytesB: 350, K: 10, TopKOverlap: 1, AvgRelDiff: (150.0 / 300) / 2}},
		{"top_k_disagree", rep(est(1, 300), est(2, 200)), rep(est(2, 250), est(1, 100)), 1, CompareResult{
			Interval: 7, FlowsA: 2, FlowsB: 2, CommonFlows: 2,
			BytesA: 500, BytesB: 350, K: 1, AvgRelDiff: (200.0/300 + 50.0/250) / 2}},
		{"zero_byte_flow", rep(est(1, 0)), rep(est(1, 0)), 1, CompareResult{
			Interval: 7, FlowsA: 1, FlowsB: 1, CommonFlows: 1, K: 1, TopKOverlap: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Compare(tc.a, tc.b, tc.k); got != tc.want {
				t.Errorf("Compare = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestOnReportWithDiscardReports: the hook receives every interval's report
// while the pipeline retains none, and a hooked report is never the reused
// merge arena, so the hook may keep it.
func TestOnReportWithDiscardReports(t *testing.T) {
	cfg := abConfig(2)
	cfg.DiscardReports = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var seen []core.IntervalReport
	p.OnReport = func(r core.IntervalReport) { seen = append(seen, r) }
	for iv := 0; iv < 3; iv++ {
		pk := flow.Packet{Size: 100, SrcIP: uint32(iv), DstIP: 2, Proto: 6}
		p.Packet(&pk)
		p.EndInterval(iv)
	}
	if p.Reports() != nil {
		t.Errorf("DiscardReports kept %d reports in memory", len(p.Reports()))
	}
	if got := p.Stats().Reports; got != 3 {
		t.Errorf("report counter = %d, want 3", got)
	}
	if len(seen) != 3 {
		t.Fatalf("hook saw %d reports, want 3", len(seen))
	}
	for iv, r := range seen {
		want := []core.Estimate{{Key: flow.FiveTuple{}.Key(&flow.Packet{SrcIP: uint32(iv), DstIP: 2, Proto: 6}), Bytes: 100}}
		if r.Interval != iv || !reflect.DeepEqual(r.Estimates, want) {
			t.Errorf("interval %d: hooked report %+v, want %+v", iv, r.Estimates, want)
		}
	}
}
