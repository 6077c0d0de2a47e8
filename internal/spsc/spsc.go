// Package spsc is a bounded single-producer/single-consumer ring buffer,
// the lane handoff primitive behind the sharded measure stage. A Go channel
// send costs a mutex acquire, a copy under the lock and usually a goroutine
// wake; at multi-million-batch rates across shards that serialization is
// the handoff bottleneck. Here a push is one plain slice write plus one
// atomic release-store (the slot sequence publication) in the common case —
// no lock, no syscall, no scheduler involvement while both sides are busy.
//
// The design is the classic sequence-stamped ring (Vyukov): every slot
// carries a sequence number; a slot is writable at position p when seq == p
// and readable when seq == p+1. The producer owns the tail cursor and the
// consumer owns the head cursor, each on its own cache line so the two
// sides never false-share. The head cursor is additionally CAS-advanced
// rather than plainly stored so that the *producer* may steal the oldest
// queued element (Steal) — that is how the DropOldest overload policy
// evicts under pressure without violating the single-consumer protocol:
// whoever wins the CAS owns the slot, the loser retries.
//
// Waiting is busy-poll-then-park: a short busy spin (skipped entirely when
// GOMAXPROCS == 1, where spinning only steals cycles from the peer), a few
// runtime.Gosched yields, then a real park on a 1-buffered wake channel
// guarded by a Dekker-style flag handshake (store own parked flag, re-check
// the condition, only then sleep; the peer stores the condition first and
// loads the flag second, so with Go's sequentially consistent atomics at
// least one side always observes the other and no wakeup is lost). See
// DESIGN.md §10 for the full memory-ordering argument.
package spsc

import (
	"runtime"
	"sync/atomic"
)

// spinBudget is the busy-poll iteration count used before yielding when
// more than one CPU is available; on a single CPU the budget is zero
// because the peer cannot run until we yield.
const spinBudget = 128

// yieldBudget is the number of runtime.Gosched attempts between busy
// polling and parking on the wake channel.
const yieldBudget = 4

type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// Ring is a bounded SPSC queue of T. Exactly one goroutine may call the
// push side (TryPush, Push, Steal, Close) and exactly one the pop side
// (TryPop, Pop); Len and Cap are safe from anywhere. The zero value is not
// usable; construct with New.
type Ring[T any] struct {
	slots []slot[T]
	mask  uint64
	cap   uint64
	spin  int

	// Each cursor sits alone on its cache line: the producer writes tail
	// and the consumer writes head, and padding keeps one side's writes
	// from invalidating the other side's line.
	_    [64]byte
	tail atomic.Uint64
	_    [56]byte
	head atomic.Uint64
	_    [56]byte

	closed         atomic.Bool
	consumerParked atomic.Bool
	producerParked atomic.Bool
	consumerWake   chan struct{}
	producerWake   chan struct{}
}

// New builds a ring with the given logical capacity (it accepts exactly
// capacity elements before TryPush reports full, matching a channel of that
// capacity). Slot storage is rounded up to a power of two internally, and
// to at least two slots: in a one-slot ring a pushed slot's sequence (p+1)
// equals the "writable at p+1" value, so the producer could refill the slot
// between a pop's head CAS and its read of the value.
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		panic("spsc: capacity must be at least 1")
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{
		slots:        make([]slot[T], n),
		mask:         uint64(n - 1),
		cap:          uint64(capacity),
		consumerWake: make(chan struct{}, 1),
		producerWake: make(chan struct{}, 1),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		r.spin = spinBudget
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the logical capacity.
func (r *Ring[T]) Cap() int { return int(r.cap) }

// Len returns the number of queued elements. It is exact when called from
// the producer or consumer goroutine between operations, and a point-in-time
// approximation from anywhere else.
func (r *Ring[T]) Len() int {
	d := int64(r.tail.Load() - r.head.Load())
	if d < 0 {
		// A pop can advance head a beat before the push that fed it
		// publishes tail; clamp the transient.
		return 0
	}
	return int(d)
}

// Closed reports whether Close has been called. Elements already queued
// remain poppable after close.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }

// TryPush appends v if the ring is not full. The publication the consumer
// synchronizes on is the single slot-sequence release store; the tail store
// only feeds Len and the producer's own capacity check.
func (r *Ring[T]) TryPush(v T) bool {
	if r.closed.Load() {
		return false
	}
	pos := r.tail.Load()
	if pos-r.head.Load() >= r.cap {
		return false
	}
	s := &r.slots[pos&r.mask]
	if s.seq.Load() != pos {
		// The slot's previous occupant is still mid-pop (head already
		// advanced, sequence not yet republished): treat as full.
		return false
	}
	s.val = v
	s.seq.Store(pos + 1)
	r.tail.Store(pos + 1)
	if r.consumerParked.Load() {
		select {
		case r.consumerWake <- struct{}{}:
		default:
		}
	}
	return true
}

// Push appends v, waiting (busy-poll, yield, park) while the ring is full.
// It returns false only if the ring is closed — in the intended usage the
// producer is the closer, so false means a use-after-close bug upstream.
func (r *Ring[T]) Push(v T) bool {
	for {
		if r.TryPush(v) {
			return true
		}
		if r.closed.Load() {
			return false
		}
		r.waitNotFull()
	}
}

// take resolves the pop race for the slot at pos: whoever wins the head CAS
// owns the slot, copies the value out, clears the slot (so queued pointers
// do not outlive their pop) and republishes the sequence for the producer's
// next lap.
func (r *Ring[T]) take(pos uint64, s *slot[T]) (T, bool) {
	var zero T
	if !r.head.CompareAndSwap(pos, pos+1) {
		return zero, false
	}
	v := s.val
	s.val = zero
	s.seq.Store(pos + uint64(len(r.slots)))
	if r.producerParked.Load() {
		select {
		case r.producerWake <- struct{}{}:
		default:
		}
	}
	return v, true
}

// TryPop removes the oldest element if one is ready.
func (r *Ring[T]) TryPop() (T, bool) {
	for {
		pos := r.head.Load()
		s := &r.slots[pos&r.mask]
		if s.seq.Load() != pos+1 {
			var zero T
			return zero, false
		}
		if v, ok := r.take(pos, s); ok {
			return v, true
		}
	}
}

// Steal is TryPop callable from the producer goroutine: it evicts the
// oldest queued element (DropOldest). The head CAS arbitrates against a
// concurrent consumer pop; both sides' loops make one of them win every
// round, so neither can starve the other.
func (r *Ring[T]) Steal() (T, bool) { return r.TryPop() }

// Pop removes the oldest element, waiting while the ring is empty. It
// returns ok=false only once the ring is closed and fully drained.
func (r *Ring[T]) Pop() (T, bool) {
	for {
		if v, ok := r.TryPop(); ok {
			return v, true
		}
		if r.closed.Load() {
			// Re-check after observing closed: pushes before Close must
			// all be delivered.
			if v, ok := r.TryPop(); ok {
				return v, true
			}
			var zero T
			return zero, false
		}
		r.waitNotEmpty()
	}
}

// Close marks the ring closed and wakes both sides. Queued elements remain
// poppable; Pop reports done once they are drained. Only the producer may
// call Close, and only once.
func (r *Ring[T]) Close() {
	r.closed.Store(true)
	select {
	case r.consumerWake <- struct{}{}:
	default:
	}
	select {
	case r.producerWake <- struct{}{}:
	default:
	}
}

func (r *Ring[T]) empty() bool { return r.tail.Load() == r.head.Load() }

func (r *Ring[T]) full() bool { return r.tail.Load()-r.head.Load() >= r.cap }

// waitNotEmpty is the consumer's wait: spin (multi-CPU only), yield, then
// park. The parked flag is stored before the final emptiness re-check and
// the producer stores the slot sequence before loading the flag; with
// sequentially consistent atomics one of the two always sees the other, so
// the producer either observes the flag and sends a wake token or the
// consumer observes the push and never sleeps.
func (r *Ring[T]) waitNotEmpty() {
	for i := 0; i < r.spin; i++ {
		if !r.empty() || r.closed.Load() {
			return
		}
	}
	for i := 0; i < yieldBudget; i++ {
		if !r.empty() || r.closed.Load() {
			return
		}
		runtime.Gosched()
	}
	r.consumerParked.Store(true)
	if !r.empty() || r.closed.Load() {
		r.consumerParked.Store(false)
		select {
		case <-r.consumerWake:
		default:
		}
		return
	}
	<-r.consumerWake
	r.consumerParked.Store(false)
}

// waitNotFull is the producer's wait, the mirror image of waitNotEmpty
// against the consumer's head advance.
func (r *Ring[T]) waitNotFull() {
	for i := 0; i < r.spin; i++ {
		if !r.full() || r.closed.Load() {
			return
		}
	}
	for i := 0; i < yieldBudget; i++ {
		if !r.full() || r.closed.Load() {
			return
		}
		runtime.Gosched()
	}
	r.producerParked.Store(true)
	if !r.full() || r.closed.Load() {
		r.producerParked.Store(false)
		select {
		case <-r.producerWake:
		default:
		}
		return
	}
	<-r.producerWake
	r.producerParked.Store(false)
}
