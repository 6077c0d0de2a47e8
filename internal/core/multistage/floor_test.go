package multistage

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/core/flowmem"
	"repro/internal/flow"
)

// refFilter is a deliberately plain model of the multistage filter: one
// []uint64 per stage, cleared at every interval close, and a map for the
// flow memory. It shares only the stage hash functions with the Filter it
// shadows, so differential runs check the Filter's interval floor, its
// saturating writes and its flow memory report order.
type refFilter struct {
	cfg      Config
	hashes   *Filter
	counters [][]uint64
	mem      map[flow.Key]*flowmem.Entry
}

func newRefFilter(cfg Config, f *Filter) *refFilter {
	r := &refFilter{cfg: cfg, hashes: f, mem: map[flow.Key]*flowmem.Entry{}}
	for range cfg.Stages {
		r.counters = append(r.counters, make([]uint64, cfg.Buckets))
	}
	return r
}

// cells returns pointers to the counters key hashes to, one per stage.
func (r *refFilter) cells(key flow.Key) []*uint64 {
	out := make([]*uint64, r.cfg.Stages)
	for st := range out {
		out[st] = &r.counters[st][r.hashes.BucketOf(st, key)]
	}
	return out
}

func (r *refFilter) process(key flow.Key, size uint32) {
	s, cells := uint64(size), r.cells(key)
	lo := *slices.MinFunc(cells, func(a, b *uint64) int { return cmp.Compare(*a, *b) })
	st := r.cfg.Threshold
	if r.cfg.Serial {
		st = max(st/uint64(r.cfg.Stages), 1)
	}
	add := func() bool { // serial add: stop at the first stage left below st
		for _, c := range cells {
			if *c += s; *c < st {
				return false
			}
		}
		return true
	}
	raise := func() {
		for _, c := range cells {
			if r.cfg.Conservative {
				*c = max(*c, lo+s)
			} else {
				*c += s
			}
		}
	}
	if e := r.mem[key]; e != nil {
		e.Bytes += s
		switch {
		case r.cfg.Shield:
		case r.cfg.Serial:
			add()
		default:
			raise()
		}
		return
	}
	switch {
	case r.cfg.Serial && r.cfg.Conservative && !slices.ContainsFunc(cells, func(c *uint64) bool { return *c+s < st }):
		r.promote(key, s, 0)
	case r.cfg.Serial:
		if add() {
			r.promote(key, s, 0)
		}
	case lo+s >= st:
		if !r.cfg.Conservative {
			raise()
		}
		r.promote(key, s, lo)
	default:
		raise()
	}
}

func (r *refFilter) promote(key flow.Key, size, debt uint64) {
	if len(r.mem) >= r.cfg.Entries {
		return
	}
	e := &flowmem.Entry{Key: key, Bytes: size, CreatedThisInterval: true}
	if r.cfg.Correction {
		e.Debt = debt
	}
	r.mem[key] = e
}

// endInterval reports with the comparator flowmem used before its radix
// order, applies the preservation policy and clears every counter.
func (r *refFilter) endInterval() []core.Estimate {
	entries := make([]flowmem.Entry, 0, len(r.mem))
	for _, e := range r.mem {
		entries = append(entries, *e)
	}
	slices.SortFunc(entries, func(a, b flowmem.Entry) int {
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Key.Hi, a.Key.Hi); c != 0 {
			return c
		}
		return cmp.Compare(b.Key.Lo, a.Key.Lo)
	})
	out := make([]core.Estimate, 0, len(entries))
	for _, e := range entries {
		est := core.Estimate{Key: e.Key, Bytes: e.Bytes, Exact: e.Exact}
		if r.cfg.Correction && !e.Exact {
			est.Bytes += e.Debt
		}
		out = append(out, est)
	}
	for k, e := range r.mem {
		if !r.cfg.Preserve || (e.Bytes < r.cfg.Threshold && !e.CreatedThisInterval) {
			delete(r.mem, k)
			continue
		}
		*e = flowmem.Entry{Key: k, Exact: true}
	}
	for _, c := range r.counters {
		clear(c)
	}
	return out
}

// floorConfigs enumerates parallel/serial × conservative/classic × shield ×
// correction (parallel only) × preserve on a small, collision-heavy filter
// with a flow memory small enough to fill.
func floorConfigs() []Config {
	var out []Config
	for _, serial := range []bool{false, true} {
		for _, conservative := range []bool{false, true} {
			for _, shield := range []bool{false, true} {
				for _, correction := range []bool{false, true} {
					if correction && serial {
						continue
					}
					for _, preserve := range []bool{false, true} {
						out = append(out, Config{
							Stages: 3, Buckets: 61, Entries: 40, Threshold: 20000,
							Serial: serial, Conservative: conservative, Shield: shield,
							Correction: correction, Preserve: preserve, Seed: 9,
						})
					}
				}
			}
		}
	}
	return out
}

// runFloorDifferential drives f and a reference model through the same
// seeded stream for the given number of intervals and fails on the first
// counter value or report that differs. Each interval mixes long-lived heavy
// flows (preserved across intervals) with churning small ones, and feeds
// them through the fused batch kernel in random batch sizes.
func runFloorDifferential(t *testing.T, cfg Config, f *Filter, intervals int) {
	t.Helper()
	ref := newRefFilter(cfg, f)
	rng := rand.New(rand.NewSource(int64(cfg.Stages) + 17))
	keys := make([]flow.Key, 0, 256)
	sizes := make([]uint32, 0, 256)
	for iv := 0; iv < intervals; iv++ {
		for n := 0; n < 1500; {
			keys, sizes = keys[:0], sizes[:0]
			for b := 1 + rng.Intn(200); b > 0; b-- {
				k := flow.Key{Lo: uint64(rng.Intn(8))} // heavy, long-lived
				if rng.Intn(3) > 0 {
					k = flow.Key{Hi: uint64(iv / 3), Lo: uint64(8 + rng.Intn(400))}
				}
				size := uint32(40 + rng.Intn(1460))
				keys, sizes = append(keys, k), append(sizes, size)
				ref.process(k, size)
			}
			f.ProcessBatch(keys, sizes)
			n += len(keys)
		}
		for st := 0; st < cfg.Stages; st++ {
			for b := 0; b < cfg.Buckets; b++ {
				if got, want := f.CounterValue(st, b), ref.counters[st][b]; got != want {
					t.Fatalf("interval %d: counter (%d,%d) = %d, reference %d", iv, st, b, got, want)
				}
			}
		}
		got, want := f.EndInterval(), ref.endInterval()
		if !slices.Equal(got, want) {
			t.Fatalf("interval %d: report of %d estimates differs from the reference's %d", iv, len(got), len(want))
		}
	}
}

// TestCounterFloorMatchesReference checks the interval floor against plain
// cleared counters over every filter variant for 48 intervals — once from a
// fresh filter, and once with the floor set just below maxBase so the full
// clear on wrap happens mid-run.
func TestCounterFloorMatchesReference(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		for _, cfg := range floorConfigs() {
			name := fmt.Sprintf("serial=%v/cons=%v/shield=%v/corr=%v/preserve=%v/wrap=%v",
				cfg.Serial, cfg.Conservative, cfg.Shield, cfg.Correction, cfg.Preserve, wrap)
			t.Run(name, func(t *testing.T) {
				f, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					f.base = maxBase - 2*counterStride
				}
				runFloorDifferential(t, cfg, f, 48)
				if wrap && f.base != 45*counterStride {
					t.Fatalf("floor %#x after the wrap, want %#x", f.base, uint64(45*counterStride))
				}
			})
		}
	}
}

// TestCounterSaturates pins the per-interval value bound: a write that would
// carry a counter past counterCap stops there, even at the highest floor,
// so no interval's counters reach the next floor and the top floor cannot
// overflow.
func TestCounterSaturates(t *testing.T) {
	for _, serial := range []bool{false, true} {
		f, err := New(Config{Stages: 2, Buckets: 8, Entries: 4, Threshold: counterCap, Serial: serial, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		f.base = maxBase
		k := flow.Key{Lo: 3}
		o := f.hashStages(k)[0]
		f.counters[o] = f.base + counterCap - 100
		f.Process(k, 1500)
		if got := f.CounterValue(0, int(o)); got != counterCap {
			t.Errorf("serial=%v: counter %d after saturating add, want %d", serial, got, uint64(counterCap))
		}
		f.EndInterval()
		if f.base != 0 || f.CounterValue(0, int(o)) != 0 {
			t.Errorf("serial=%v: floor %d, counter %d after the wrap, want 0 and 0", serial, f.base, f.CounterValue(0, int(o)))
		}
	}
}

// TestThresholdBoundedByCounterCap checks that no threshold lies above the
// saturated counter value: Validate rejects one, SetThreshold clamps one, and
// a flow whose counters sit at the top of the range still passes the largest
// threshold allowed.
func TestThresholdBoundedByCounterCap(t *testing.T) {
	cfg := Config{Stages: 2, Buckets: 8, Entries: 4, Threshold: counterCap + 1, Seed: 1}
	if _, err := New(cfg); err == nil {
		t.Fatalf("threshold %d above counterCap accepted", cfg.Threshold)
	}
	cfg.Threshold = counterCap
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.SetThreshold(math.MaxUint64)
	if f.Threshold() != counterCap {
		t.Fatalf("SetThreshold(MaxUint64) -> %d, want %d", f.Threshold(), uint64(counterCap))
	}
	f.base = 7 * counterStride
	k := flow.Key{Lo: 9}
	for _, o := range f.hashStages(k) {
		f.counters[o] = f.base + counterCap - 100
	}
	f.Process(k, 1500)
	if f.EntriesUsed() != 1 {
		t.Fatalf("flow with saturated counters not promoted at threshold counterCap")
	}
}
