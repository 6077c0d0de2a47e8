package spsc

import (
	"sync"
	"testing"
)

func TestFIFOAndCapacity(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 7, 64} {
		r := New[int](capacity)
		if r.Cap() != capacity {
			t.Fatalf("cap %d: got %d", capacity, r.Cap())
		}
		for i := 0; i < capacity; i++ {
			if !r.TryPush(i) {
				t.Fatalf("cap %d: push %d rejected below capacity", capacity, i)
			}
		}
		if r.TryPush(999) {
			t.Fatalf("cap %d: push accepted at capacity", capacity)
		}
		if r.Len() != capacity {
			t.Fatalf("cap %d: Len=%d", capacity, r.Len())
		}
		for i := 0; i < capacity; i++ {
			v, ok := r.TryPop()
			if !ok || v != i {
				t.Fatalf("cap %d: pop %d got (%d, %v)", capacity, i, v, ok)
			}
		}
		if _, ok := r.TryPop(); ok {
			t.Fatalf("cap %d: pop succeeded on empty ring", capacity)
		}
	}
}

func TestWrapAround(t *testing.T) {
	r := New[int](3)
	next := 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			if !r.TryPush(next + i) {
				t.Fatalf("round %d: push rejected", round)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.TryPop()
			if !ok || v != next+i {
				t.Fatalf("round %d: got (%d, %v), want %d", round, v, ok, next+i)
			}
		}
		next += 3
	}
}

func TestCloseDrains(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 5; i++ {
		r.TryPush(i)
	}
	r.Close()
	if !r.Closed() {
		t.Fatal("Closed() false after Close")
	}
	for i := 0; i < 5; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("drain %d: got (%d, %v)", i, v, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop succeeded after drain of closed ring")
	}
	if r.Push(42) {
		t.Fatal("Push accepted after Close")
	}
}

func TestBlockingHandoff(t *testing.T) {
	// Capacity 1 forces both sides through their wait paths.
	const total = 10000
	r := New[int](1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if !r.Push(i) {
				t.Errorf("push %d rejected", i)
				return
			}
		}
		r.Close()
	}()
	for i := 0; ; i++ {
		v, ok := r.Pop()
		if !ok {
			if i != total {
				t.Fatalf("drained after %d pops, want %d", i, total)
			}
			break
		}
		if v != i {
			t.Fatalf("pop %d: got %d", i, v)
		}
	}
	wg.Wait()
}

// TestOneSlotPopRace replays, step by step, the interleaving that broke a
// capacity-1 ring built on one slot: the consumer wins the head CAS for an
// element, and before it reads the value the producer — seeing the ring
// empty — pushes the next one. The push must not land in the slot being
// popped.
func TestOneSlotPopRace(t *testing.T) {
	r := New[int](1)
	if !r.TryPush(1) {
		t.Fatal("push into empty ring rejected")
	}
	pos := r.head.Load()
	s := &r.slots[pos&r.mask]
	if !r.head.CompareAndSwap(pos, pos+1) { // the consumer's claim in take
		t.Fatal("head CAS failed")
	}
	r.TryPush(2)
	if s.val != 1 {
		t.Fatalf("slot being popped holds %d, want 1: the push overwrote it", s.val)
	}
}

// TestStealVsPop races the producer-side Steal against the consumer's Pop;
// every pushed element must surface exactly once on exactly one side.
func TestStealVsPop(t *testing.T) {
	const total = 20000
	r := New[int](4)
	stolen := make(map[int]bool)
	popped := make(map[int]bool)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			v, ok := r.Pop()
			if !ok {
				return
			}
			if popped[v] {
				t.Errorf("popped %d twice", v)
				return
			}
			popped[v] = true
		}
	}()
	for i := 0; i < total; i++ {
		for !r.TryPush(i) {
			if v, ok := r.Steal(); ok {
				if stolen[v] {
					t.Fatalf("stole %d twice", v)
				}
				stolen[v] = true
			}
		}
	}
	r.Close()
	wg.Wait()
	for i := 0; i < total; i++ {
		s, p := stolen[i], popped[i]
		if s && p {
			t.Fatalf("%d both stolen and popped", i)
		}
		if !s && !p {
			t.Fatalf("%d lost", i)
		}
	}
}

func TestPointerSlotsCleared(t *testing.T) {
	r := New[*int](2)
	v := new(int)
	r.TryPush(v)
	if got, ok := r.TryPop(); !ok || got != v {
		t.Fatal("pointer round-trip failed")
	}
	// The popped slot must not retain the pointer (GC hygiene).
	if r.slots[0].val != nil {
		t.Fatal("slot retains popped pointer")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}
