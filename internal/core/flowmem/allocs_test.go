//go:build !race

// The race detector changes the allocator's behavior, so the allocation
// guards only exist in non-race builds; CI runs them in a dedicated step.

package flowmem

import (
	"testing"

	"repro/internal/flow"
)

// TestLookupUpdateZeroAllocs guards the warm per-packet path: a flow-table
// hit plus a counter update must not allocate — this is the code every
// tracked packet of every algorithm runs.
func TestLookupUpdateZeroAllocs(t *testing.T) {
	m := New(1024)
	const flows = 700
	for i := 0; i < flows; i++ {
		insert(m, flow.Key{Lo: uint64(i)}, 1)
	}
	var k flow.Key
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		k.Lo = uint64(i % flows)
		i++
		if e := lookup(m, k); e != nil {
			e.Bytes += 1000
		}
		k.Lo = uint64(i%flows) + flows // miss path
		if lookup(m, k) != nil {
			t.Fatal("unexpected hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup+update allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestInsertZeroAllocs guards the promotion path: claiming an empty slot in
// the preallocated table must not allocate, nor may a full-table refusal.
func TestInsertZeroAllocs(t *testing.T) {
	m := New(512)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		insert(m, flow.Key{Lo: uint64(i)}, 1) // refused once full: still 0 allocs
		i++
	})
	if allocs != 0 {
		t.Fatalf("Insert allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestReportAmortizedZeroAllocs guards the per-interval report on a warm
// table: after the first report and transition have grown the scratch that
// Report and EndInterval share, repeated reports and preserving transitions
// must not allocate — from a small table up to the 65 536 entries of a
// DRAM-sized filter, where the radix sort needs three digit passes.
func TestReportAmortizedZeroAllocs(t *testing.T) {
	for _, n := range []int{900, 65536} {
		m := New(n)
		for i := 0; i < n; i++ {
			insert(m, flow.Key{Lo: uint64(i)}, 0)
		}
		// count gives every entry a 3-byte count again (the transition
		// zeroes them), so each Report runs all its radix passes.
		count := func() {
			for i, c := range m.ctrl {
				if c != 0 {
					m.slots[i].Bytes = m.slots[i].Key.Lo * 37 % 5000 << 8
				}
			}
		}
		// Warm the scratch: one Report and one preserving transition.
		count()
		m.Report()
		m.EndInterval(Policy{Preserve: true, Threshold: 0})
		allocs := testing.AllocsPerRun(20, func() {
			count()
			if r := m.Report(); len(r) != n {
				t.Fatal("short report")
			}
			if kept := m.EndInterval(Policy{Preserve: true, Threshold: 0}); kept != n {
				t.Fatal("entries lost")
			}
		})
		if allocs != 0 {
			t.Fatalf("%d entries: warm Report+EndInterval allocates %.1f allocs/op, must be 0", n, allocs)
		}
	}
}
