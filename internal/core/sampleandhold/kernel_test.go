package sampleandhold

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
	"repro/internal/memmodel"
)

// refSampleAndHold is a deliberately plain model of sample and hold: a map
// for the flow memory and the same seeded geometric skip draw, one packet
// at a time. It shares no code with SampleAndHold, so differential runs
// check the kernel's tiling, hashing, flow memory and report order.
type refSampleAndHold struct {
	cfg  Config
	rng  *rand.Rand
	p    float64
	skip int64
	mem  map[flow.Key]*flowmem.Entry
	cost memmodel.Counter
}

func newRefSampleAndHold(cfg Config) *refSampleAndHold {
	r := &refSampleAndHold{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		p:   min(cfg.Oversampling/float64(cfg.Threshold), 1),
		mem: map[flow.Key]*flowmem.Entry{},
	}
	r.skip = r.draw()
	return r
}

// draw returns the bytes up to and including the next sampled byte:
// geometric on {1, 2, ...} with success probability p.
func (r *refSampleAndHold) draw() int64 {
	if r.p >= 1 {
		return 1
	}
	u := r.rng.Float64()
	for u == 0 {
		u = r.rng.Float64()
	}
	return max(int64(math.Ceil(math.Log(u)/math.Log(1-r.p))), 1)
}

func (r *refSampleAndHold) process(key flow.Key, size uint32) {
	r.cost.Packet()
	r.cost.SRAM(1, 0)
	if e := r.mem[key]; e != nil {
		e.Bytes += uint64(size)
		r.cost.SRAM(0, 1)
		return
	}
	if r.skip -= int64(size); r.skip > 0 {
		return
	}
	r.skip = r.draw()
	if len(r.mem) < r.cfg.Entries {
		r.mem[key] = &flowmem.Entry{Key: key, Bytes: uint64(size), CreatedThisInterval: true}
		r.cost.SRAM(0, 1)
	}
}

// endInterval reports largest count first (ties by descending key), adds
// the correction to inexact estimates, and applies preservation with early
// removal.
func (r *refSampleAndHold) endInterval() []core.Estimate {
	entries := make([]flowmem.Entry, 0, len(r.mem))
	for _, e := range r.mem {
		entries = append(entries, *e)
	}
	slices.SortFunc(entries, func(a, b flowmem.Entry) int {
		return cmp.Or(cmp.Compare(b.Bytes, a.Bytes), cmp.Compare(b.Key.Hi, a.Key.Hi), cmp.Compare(b.Key.Lo, a.Key.Lo))
	})
	out := make([]core.Estimate, 0, len(entries))
	for _, e := range entries {
		est := core.Estimate{Key: e.Key, Bytes: e.Bytes, Exact: e.Exact}
		if r.cfg.Correction && !e.Exact {
			est.Bytes += uint64(1 / r.p)
		}
		out = append(out, est)
	}
	early := uint64(r.cfg.EarlyRemoval * float64(r.cfg.Threshold))
	for k, e := range r.mem {
		if !r.cfg.Preserve || (e.Bytes < r.cfg.Threshold && (!e.CreatedThisInterval || e.Bytes < early)) {
			delete(r.mem, k)
			continue
		}
		*e = flowmem.Entry{Key: k, Exact: true}
	}
	return out
}

// kernelWorkload synthesizes a deterministic Zipf-ish stream: a few heavy
// flows over a long tail. The interval length 4097 is coprime to every
// batch size the grid uses, so every run ends on a partial tile and a
// partial batch.
func kernelWorkload(intervals, perInterval int) ([][]flow.Key, [][]uint32) {
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.25, 1, 20000)
	keys := make([][]flow.Key, intervals)
	sizes := make([][]uint32, intervals)
	for iv := range keys {
		keys[iv] = make([]flow.Key, perInterval)
		sizes[iv] = make([]uint32, perInterval)
		for i := range keys[iv] {
			keys[iv][i] = flow.Key{Hi: 7, Lo: zipf.Uint64()}
			sizes[iv][i] = 40 + uint32(rng.Intn(1460))
		}
	}
	return keys, sizes
}

// driveKernel feeds one interval to s in batches of bs, passing
// flowmem.Hash of every key when supplied; a batch of one without hashes
// goes through Process.
func driveKernel(s *SampleAndHold, keys []flow.Key, sizes []uint32, bs int, supplied bool) {
	var hashes []uint64
	if supplied {
		hashes = make([]uint64, len(keys))
		for i, k := range keys {
			hashes[i] = flowmem.Hash(k)
		}
	}
	for i := 0; i < len(keys); i += bs {
		end := min(i+bs, len(keys))
		switch {
		case supplied:
			s.ProcessBatch(hashes[i:end], keys[i:end], sizes[i:end])
		case bs == 1:
			s.Process(keys[i], sizes[i])
		default:
			s.ProcessBatch(nil, keys[i:end], sizes[i:end])
		}
	}
}

// TestKernelMatchesReference drives the packet kernel at batch sizes
// {1, 7, 64, 1024}, with and without caller-supplied flowmem hashes (batch
// size 1 without hashes goes through Process), over configurations with
// and without preservation, early removal, the correction factor and a
// flow memory small enough to fill, and checks every interval's report and
// the memory accounting totals against refSampleAndHold — so the totals
// cannot depend on the batch size either.
func TestKernelMatchesReference(t *testing.T) {
	keys, sizes := kernelWorkload(3, 4097)
	for _, cfg := range []Config{
		{Entries: 256, Threshold: 200_000, Oversampling: 4, Seed: 9},
		{Entries: 256, Threshold: 200_000, Oversampling: 4.7, Seed: 9, Preserve: true, EarlyRemoval: 0.15},
		{Entries: 256, Threshold: 200_000, Oversampling: 4.7, Seed: 9, Preserve: true, EarlyRemoval: 0.15, Correction: true},
		{Entries: 16, Threshold: 20_000, Oversampling: 4, Seed: 9, Preserve: true},
	} {
		for _, bs := range []int{1, 7, 64, 1024} {
			for _, supplied := range []bool{false, true} {
				label := fmt.Sprintf("entries=%d/preserve=%v/early=%v/corr=%v/batch=%d/hashes=%v",
					cfg.Entries, cfg.Preserve, cfg.EarlyRemoval, cfg.Correction, bs, supplied)
				t.Run(label, func(t *testing.T) {
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRefSampleAndHold(cfg)
					reported := 0
					for iv := range keys {
						k, sz := keys[iv], sizes[iv]
						for i := range k {
							ref.process(k[i], sz[i])
						}
						driveKernel(s, k, sz, bs, supplied)
						got, want := s.EndInterval(), ref.endInterval()
						if !slices.Equal(got, want) {
							t.Fatalf("interval %d: report of %d estimates differs from the reference's %d", iv, len(got), len(want))
						}
						reported += len(got)
					}
					if reported == 0 {
						t.Fatal("no flow was sampled: the grid compares empty reports")
					}
					if cfg.Entries < 256 && s.EntriesRejected() == 0 {
						t.Fatal("the small flow memory never filled")
					}
					if *s.Mem() != ref.cost {
						t.Fatalf("memory accounting %+v, reference %+v", *s.Mem(), ref.cost)
					}
				})
			}
		}
	}
}
