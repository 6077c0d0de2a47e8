// Package faultinject wraps a core.Algorithm with deterministic fault
// injection: panics, delays and estimate corruption on a fixed schedule.
// It exists for the chaos tests — proving that the pipeline's supervised
// lanes keep serving, reporting and closing cleanly through algorithm
// failures — and for rehearsing operational procedures (what does /healthz
// show when a lane dies?) without waiting for a real bug.
//
// The schedule counts packets and intervals, not wall-clock time, so a
// given trace always fails at the same point; tests stay reproducible
// under -race and on loaded CI machines.
package faultinject

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/memmodel"
)

// Corrupt returns a copy of data with flips bytes inverted at
// seed-determined positions — the wire-level counterpart of
// CorruptEveryEstimates, for feeding damaged export datagrams and frames
// to the collection-side parsers. The same (data, seed, flips) always
// yields the same corruption, so a test that fails replays identically.
func Corrupt(data []byte, seed int64, flips int) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < flips; i++ {
		out[rng.Intn(len(out))] ^= 0xff
	}
	return out
}

// Truncate returns the leading fraction frac (clamped to [0, 1]) of data —
// a deterministic model of a datagram cut short in flight.
func Truncate(data []byte, frac float64) []byte {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(len(data)) * frac)
	return append([]byte(nil), data[:n]...)
}

// Schedule says when the wrapped algorithm misbehaves. The zero value
// injects nothing.
type Schedule struct {
	// PanicAtPacket, when non-zero, panics while processing the Nth packet
	// (1-based).
	PanicAtPacket uint64
	// PanicAtInterval, when non-zero, panics in the Nth EndInterval call
	// (1-based).
	PanicAtInterval int
	// DelayEveryPackets, when non-zero with a non-zero Delay, sleeps Delay
	// before every Nth packet — the cheap way to make a lane too slow for
	// its queue in overload tests.
	DelayEveryPackets uint64
	// Delay is the sleep duration for DelayEveryPackets.
	Delay time.Duration
	// CorruptEveryEstimates, when non-zero, corrupts every Nth estimate
	// returned by EndInterval (Bytes doubled plus one), for testing
	// downstream consumers' tolerance of bad reports.
	CorruptEveryEstimates int
}

// Algorithm wraps a core.Algorithm with fault injection. It has no batch
// kernel, so core.ProcessBatch feeds it packet by packet and PanicAtPacket
// is exact within a batch.
type Algorithm struct {
	inner core.Algorithm
	sched Schedule

	packets   uint64
	intervals int
}

// Wrap wraps inner with the schedule.
func Wrap(inner core.Algorithm, sched Schedule) *Algorithm {
	return &Algorithm{inner: inner, sched: sched}
}

// Inner returns the wrapped algorithm.
func (a *Algorithm) Inner() core.Algorithm { return a.inner }

// Name implements core.Algorithm.
func (a *Algorithm) Name() string { return "faultinject(" + a.inner.Name() + ")" }

// step advances the packet counter and injects any packet-scheduled fault.
func (a *Algorithm) step() {
	a.packets++
	if a.sched.DelayEveryPackets != 0 && a.sched.Delay > 0 && a.packets%a.sched.DelayEveryPackets == 0 {
		time.Sleep(a.sched.Delay)
	}
	if a.sched.PanicAtPacket != 0 && a.packets == a.sched.PanicAtPacket {
		panic(fmt.Sprintf("faultinject: scheduled panic at packet %d", a.packets))
	}
}

// Process implements core.Algorithm.
func (a *Algorithm) Process(key flow.Key, size uint32) {
	a.step()
	a.inner.Process(key, size)
}

// EndInterval implements core.Algorithm.
func (a *Algorithm) EndInterval() []core.Estimate {
	a.intervals++
	if a.sched.PanicAtInterval != 0 && a.intervals == a.sched.PanicAtInterval {
		panic(fmt.Sprintf("faultinject: scheduled panic at interval %d", a.intervals))
	}
	ests := a.inner.EndInterval()
	if n := a.sched.CorruptEveryEstimates; n > 0 {
		for i := range ests {
			if (i+1)%n == 0 {
				ests[i].Bytes = ests[i].Bytes*2 + 1
				ests[i].Exact = false
			}
		}
	}
	return ests
}

// EntriesUsed implements core.Algorithm.
func (a *Algorithm) EntriesUsed() int { return a.inner.EntriesUsed() }

// Capacity implements core.Algorithm.
func (a *Algorithm) Capacity() int { return a.inner.Capacity() }

// Threshold implements core.Algorithm.
func (a *Algorithm) Threshold() uint64 { return a.inner.Threshold() }

// SetThreshold implements core.Algorithm.
func (a *Algorithm) SetThreshold(t uint64) { a.inner.SetThreshold(t) }

// Mem implements core.Algorithm.
func (a *Algorithm) Mem() *memmodel.Counter { return a.inner.Mem() }

// EntriesRejected implements core.MemoryPressure when the inner algorithm
// does, and reports zero otherwise.
func (a *Algorithm) EntriesRejected() uint64 {
	if mp, ok := a.inner.(core.MemoryPressure); ok {
		return mp.EntriesRejected()
	}
	return 0
}
