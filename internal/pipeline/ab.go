// A/B: two pipelines racing on one packet stream, scored per interval.

package pipeline

import (
	"repro/internal/core"
	"repro/internal/flow"
)

// CompareResult is the per-interval outcome of racing two pipelines on the
// same stream (an A/B accuracy comparison): how much their reports agree,
// flow by flow and in the top K.
type CompareResult struct {
	Interval int `json:"interval"`
	// FlowsA/FlowsB are the report sizes; CommonFlows is how many flow keys
	// appear in both.
	FlowsA      int `json:"flows_a"`
	FlowsB      int `json:"flows_b"`
	CommonFlows int `json:"common_flows"`
	// BytesA/BytesB are each report's total estimated bytes.
	BytesA uint64 `json:"bytes_a"`
	BytesB uint64 `json:"bytes_b"`
	// K and TopKOverlap: fraction of A's top-K flows also in B's top K
	// (1.0 = the two algorithms agree on the heavy hitters).
	K           int     `json:"k"`
	TopKOverlap float64 `json:"top_k_overlap"`
	// AvgRelDiff is the mean relative byte-estimate difference
	// |a-b|/max(a,b) over the common flows.
	AvgRelDiff float64 `json:"avg_rel_diff"`
}

// AB feeds one producer's packets to two pipelines, A and B, and scores
// each interval's pair of reports with Compare as soon as both sides have
// closed it. Both reports are on the producer goroutine by then, so the
// comparison needs no queue: it costs O(report) per interval. AB is a
// trace.BatchConsumer; drive it from a single goroutine.
type AB struct {
	A, B *Pipeline
	// OnCompare, when set, receives each interval's comparison on the
	// producer goroutine, in interval order. Set it before traffic flows.
	OnCompare func(CompareResult)

	k int
}

// NewAB starts pipelines a and b, whose reports are compared over their
// top k flows (k <= 0 selects 10). On error nothing is left running.
func NewAB(a, b Config, k int) (*AB, error) {
	pa, err := New(a)
	if err != nil {
		return nil, err
	}
	pb, err := New(b)
	if err != nil {
		pa.Close()
		return nil, err
	}
	if k <= 0 {
		k = 10
	}
	return &AB{A: pa, B: pb, k: k}, nil
}

// Packet feeds one packet to both pipelines.
func (ab *AB) Packet(pkt *flow.Packet) {
	ab.A.Packet(pkt)
	ab.B.Packet(pkt)
}

// PacketBatch feeds a burst to both pipelines; neither modifies it.
func (ab *AB) PacketBatch(pkts []flow.Packet) {
	ab.A.PacketBatch(pkts)
	ab.B.PacketBatch(pkts)
}

// EndInterval closes the interval on both pipelines, then hands their
// comparison to OnCompare.
func (ab *AB) EndInterval(interval int) {
	ab.A.EndInterval(interval)
	ab.B.EndInterval(interval)
	if ab.OnCompare != nil {
		ab.OnCompare(Compare(ab.A.last, ab.B.last, ab.k))
	}
}

// Close closes both pipelines. Idempotent.
func (ab *AB) Close() {
	ab.A.Close()
	ab.B.Close()
}

// Compare scores two reports of the same interval over their top k flows.
func Compare(a, b core.IntervalReport, k int) CompareResult {
	res := CompareResult{
		Interval: a.Interval,
		FlowsA:   len(a.Estimates), FlowsB: len(b.Estimates),
		K: k,
	}
	byKey := make(map[flow.Key]uint64, len(b.Estimates))
	for _, e := range b.Estimates {
		byKey[e.Key] = e.Bytes
		res.BytesB += e.Bytes
	}
	var relSum float64
	for _, e := range a.Estimates {
		res.BytesA += e.Bytes
		be, ok := byKey[e.Key]
		if !ok {
			continue
		}
		res.CommonFlows++
		if hi := max(e.Bytes, be); hi > 0 {
			relSum += float64(hi-min(e.Bytes, be)) / float64(hi)
		}
	}
	if res.CommonFlows > 0 {
		res.AvgRelDiff = relSum / float64(res.CommonFlows)
	}
	// Reports are sorted descending by bytes, so the top K are the prefixes.
	ka, kb := min(k, len(a.Estimates)), min(k, len(b.Estimates))
	topB := make(map[flow.Key]bool, kb)
	for _, e := range b.Estimates[:kb] {
		topB[e.Key] = true
	}
	overlap := 0
	for _, e := range a.Estimates[:ka] {
		if topB[e.Key] {
			overlap++
		}
	}
	if ka > 0 {
		res.TopKOverlap = float64(overlap) / float64(ka)
	}
	return res
}
