package main

import (
	"time"

	traffic "repro"
)

// Isolated layer timings: each calls one layer's public function from the
// benchmark on the workload's own packets or keys, with the layers around
// it stubbed out, and reports its quietest repetitions the way the timed
// passes do, so the ledger sets like against like.

const isoReps = 7

// nopConsumer stands in for the device when the replay loop is timed alone.
type nopConsumer struct{}

func (nopConsumer) Packet(*traffic.Packet)       {}
func (nopConsumer) PacketBatch([]traffic.Packet) {}
func (nopConsumer) EndInterval(int)              {}

// isoReplay times traffic.Replay (batching and interval detection) into a
// consumer that does nothing; ns per packet.
func isoReplay(in *input) float64 {
	d := newDriver(in, nopConsumer{})
	d.replay(in.intervals()) //nolint:errcheck // warm-up; the input replayed cleanly already
	ns := make([]float64, 0, isoReps)
	for range isoReps {
		t0 := time.Now()
		n, _ := d.replay(in.intervals())
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return median(pick(ns, quietest(ns)))
}

// isoKey times 5-tuple key extraction the way a Device does it, into a
// reused key slice; ns per packet.
func isoKey(in *input) float64 {
	def := traffic.FiveTuple
	keys := make([]traffic.FlowKey, len(in.pkts))
	ns := make([]float64, 0, isoReps)
	for range isoReps {
		t0 := time.Now()
		for i := range in.pkts {
			keys[i] = def.Key(&in.pkts[i])
		}
		ns = append(ns, float64(time.Since(t0))/float64(len(in.pkts)))
	}
	return median(pick(ns, quietest(ns)))
}

// kernelCost is the isolated kernel's cost.
type kernelCost struct {
	nsPerPkt float64   // process time over all lanes, per packet
	laneNs   []float64 // process time per packet of each lane's own packets
	endUs    float64   // median EndInterval, per lane instance
}

// isoKernel drives fresh instances of the workload's algorithm (one per
// lane) with traffic.ProcessBatch in 256-packet batches over the
// workload's keys, closing intervals in between. Multistage instances get
// the Device's Figure 5 adaptation between intervals, untimed. Lanes split
// the keys by the benchmark's own hash, so each sees a lane-sized share of
// the flows. The first pass warms up; of the timed passes after it, the
// quietest count.
func isoKernel(w *workload, in *input) (kernelCost, error) {
	lanes := max(1, w.lanes)
	type laneInput struct {
		keys  [][]traffic.FlowKey // per interval
		sizes [][]uint32
	}
	li := make([]laneInput, lanes)
	for l := range li {
		li[l].keys = make([][]traffic.FlowKey, in.intervals())
		li[l].sizes = make([][]uint32, in.intervals())
	}
	for iv := 0; iv < in.intervals(); iv++ {
		for j := in.bounds[iv]; j < in.bounds[iv+1]; j++ {
			k := traffic.FiveTuple.Key(&in.pkts[j])
			l := laneOf(k, lanes)
			li[l].keys[iv] = append(li[l].keys[iv], k)
			li[l].sizes[iv] = append(li[l].sizes[iv], in.pkts[j].Size)
		}
	}
	algs := make([]traffic.Algorithm, lanes)
	var adaptor *traffic.Adaptor
	for l := range algs {
		a, err := w.newAlgorithm(in.meta, l)
		if err != nil {
			return kernelCost{}, err
		}
		algs[l] = a
	}
	if w.lanes == 0 {
		adaptor = traffic.NewAdaptor(traffic.MultistageAdaptation())
	}
	const timedPasses = 5
	type passCost struct {
		laneTime []time.Duration
		lanePkts []int
		ends     []float64 // EndInterval µs, per lane instance
	}
	costs := make([]passCost, timedPasses)
	perPkt := make([]float64, timedPasses)
	var rejected uint64
	for pass := -1; pass < timedPasses; pass++ {
		pc := passCost{laneTime: make([]time.Duration, lanes), lanePkts: make([]int, lanes)}
		for iv := 0; iv < in.intervals(); iv++ {
			for l, a := range algs {
				keys, sizes := li[l].keys[iv], li[l].sizes[iv]
				t0 := time.Now()
				for lo := 0; lo < len(keys); lo += batchSize {
					hi := min(lo+batchSize, len(keys))
					traffic.ProcessBatch(a, keys[lo:hi], sizes[lo:hi])
				}
				d := time.Since(t0)
				threshold, used := a.Threshold(), a.EntriesUsed()
				t1 := time.Now()
				a.EndInterval()
				e := time.Since(t1)
				if adaptor != nil {
					var rej uint64
					if mp, ok := a.(traffic.MemoryPressure); ok {
						rej = mp.EntriesRejected() - rejected
						rejected = mp.EntriesRejected()
					}
					a.SetThreshold(adaptor.AdaptPressure(used, a.Capacity(), rej, threshold))
				}
				pc.laneTime[l] += d
				pc.lanePkts[l] += len(keys)
				pc.ends = append(pc.ends, float64(e)/1e3)
			}
		}
		if pass < 0 {
			continue // warm-up
		}
		var total time.Duration
		var pkts int
		for l := range pc.laneTime {
			total += pc.laneTime[l]
			pkts += pc.lanePkts[l]
		}
		costs[pass], perPkt[pass] = pc, float64(total)/float64(max(1, pkts))
	}
	quiet := quietest(perPkt)
	c := kernelCost{nsPerPkt: median(pick(perPkt, quiet)), laneNs: make([]float64, lanes)}
	var ends []float64
	for l := range c.laneNs {
		var ns []float64
		for _, i := range quiet {
			ns = append(ns, float64(costs[i].laneTime[l])/float64(max(1, costs[i].lanePkts[l])))
		}
		c.laneNs[l] = median(ns)
	}
	for _, i := range quiet {
		ends = append(ends, costs[i].ends...)
	}
	c.endUs = median(ends)
	return c, nil
}

// laneOf spreads keys over lanes with a splitmix64 finalizer.
func laneOf(k traffic.FlowKey, lanes int) int {
	h := k.Hi ^ (k.Lo * 0x9E3779B97F4A7C15)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(lanes))
}
