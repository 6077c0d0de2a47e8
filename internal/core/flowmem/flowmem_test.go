package flowmem

import (
	"testing"

	"repro/internal/flow"
)

func key(i uint64) flow.Key { return flow.Key{Lo: i} }

// lookup and insert probe m with the key's Hash, as the packet kernels do.
func lookup(m *Memory, k flow.Key) *Entry { return m.LookupHash(Hash(k), k) }

func insert(m *Memory, k flow.Key, initialBytes uint64) *Entry {
	return m.InsertHash(Hash(k), k, initialBytes)
}

func TestInsertLookup(t *testing.T) {
	m := New(4)
	if m.Capacity() != 4 || m.Len() != 0 || m.Full() {
		t.Fatalf("fresh memory state wrong: cap=%d len=%d", m.Capacity(), m.Len())
	}
	e := insert(m, key(1), 100)
	if e == nil || e.Bytes != 100 || !e.CreatedThisInterval || e.Exact {
		t.Fatalf("Insert returned %+v", e)
	}
	if got := lookup(m, key(1)); got != e {
		t.Error("Lookup did not return the inserted entry")
	}
	if lookup(m, key(2)) != nil {
		t.Error("Lookup of absent key returned an entry")
	}
	e.Bytes += 50
	if lookup(m, key(1)).Bytes != 150 {
		t.Error("entry updates not visible through Lookup")
	}
}

func TestInsertDuplicate(t *testing.T) {
	m := New(4)
	if insert(m, key(1), 10) == nil {
		t.Fatal("first insert failed")
	}
	if insert(m, key(1), 10) != nil {
		t.Error("duplicate insert succeeded")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestInsertFull(t *testing.T) {
	m := New(2)
	insert(m, key(1), 1)
	insert(m, key(2), 1)
	if !m.Full() {
		t.Fatal("memory should be full")
	}
	if insert(m, key(3), 1) != nil {
		t.Error("insert into full memory succeeded")
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestReportSortedBySize(t *testing.T) {
	m := New(8)
	insert(m, key(1), 10)
	insert(m, key(2), 1000)
	insert(m, key(3), 500)
	r := m.Report()
	if len(r) != 3 {
		t.Fatalf("Report len = %d", len(r))
	}
	if r[0].Bytes != 1000 || r[1].Bytes != 500 || r[2].Bytes != 10 {
		t.Errorf("Report order: %v", r)
	}
}

func TestReportDeterministicOnTies(t *testing.T) {
	mk := func() []Entry {
		m := New(16)
		for i := uint64(0); i < 10; i++ {
			insert(m, key(i), 42)
		}
		return m.Report()
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("Report order not deterministic on equal sizes")
		}
	}
}

func TestEndIntervalNoPreserveClears(t *testing.T) {
	m := New(4)
	insert(m, key(1), 1000000)
	kept := m.EndInterval(Policy{Preserve: false, Threshold: 10})
	if kept != 0 || m.Len() != 0 {
		t.Errorf("kept=%d len=%d after non-preserving transition", kept, m.Len())
	}
}

func TestEndIntervalPreserve(t *testing.T) {
	m := New(8)
	insert(m, key(1), 2000) // above threshold: kept
	insert(m, key(2), 100)  // below threshold but created this interval: kept
	kept := m.EndInterval(Policy{Preserve: true, Threshold: 1000})
	if kept != 2 {
		t.Fatalf("kept = %d, want 2 (conservative rule keeps new entries)", kept)
	}
	for _, k := range []flow.Key{key(1), key(2)} {
		e := lookup(m, k)
		if e == nil {
			t.Fatalf("entry %v dropped", k)
		}
		if e.Bytes != 0 || !e.Exact || e.CreatedThisInterval {
			t.Errorf("preserved entry not reset: %+v", e)
		}
	}
}

func TestEndIntervalPreservedOldEntriesNeedThreshold(t *testing.T) {
	m := New(8)
	insert(m, key(1), 2000)
	m.EndInterval(Policy{Preserve: true, Threshold: 1000})
	// Next interval: the preserved entry counts only 50 bytes. It is no
	// longer "created this interval", so it must meet the threshold to
	// survive again.
	lookup(m, key(1)).Bytes = 50
	kept := m.EndInterval(Policy{Preserve: true, Threshold: 1000})
	if kept != 0 || lookup(m, key(1)) != nil {
		t.Error("stale preserved entry below threshold survived")
	}
}

func TestEndIntervalEarlyRemoval(t *testing.T) {
	m := New(8)
	insert(m, key(1), 2000) // >= T: kept
	insert(m, key(2), 200)  // >= R: kept
	insert(m, key(3), 100)  // < R: removed early
	kept := m.EndInterval(Policy{Preserve: true, Threshold: 1000, EarlyRemoval: 150})
	if kept != 2 {
		t.Fatalf("kept = %d, want 2", kept)
	}
	if lookup(m, key(3)) != nil {
		t.Error("entry below early removal threshold survived")
	}
	if lookup(m, key(1)) == nil || lookup(m, key(2)) == nil {
		t.Error("entries above early removal threshold dropped")
	}
}

// TestEndIntervalWrappedCluster pins the in-place rebuild on a probe
// cluster that wraps past the table's last slot, with an eviction at its
// start: survivors homed near the end but stored at the front must still be
// found, so the rebuild has to meet the cluster from its start.
func TestEndIntervalWrappedCluster(t *testing.T) {
	m := New(4) // 8 slots
	last := m.mask
	homes := []uint64{last - 1, last - 1, last - 1, last} // slots 6, 7, 0, 1
	for i, h := range homes {
		m.InsertHash(h, key(uint64(i)), 5000)
	}
	m.LookupHash(homes[0], key(0)).CreatedThisInterval = false
	m.LookupHash(homes[0], key(0)).Bytes = 0 // evicted: old and below T
	if kept := m.EndInterval(Policy{Preserve: true, Threshold: 1000}); kept != 3 {
		t.Fatalf("kept %d entries, want 3", kept)
	}
	for i, h := range homes[1:] {
		if m.LookupHash(h, key(uint64(i+1))) == nil {
			t.Errorf("survivor %d (home %d) lost by the rebuild", i+1, h)
		}
	}
}

func TestEndIntervalFreesCapacity(t *testing.T) {
	m := New(2)
	insert(m, key(1), 1)
	insert(m, key(2), 1)
	m.EndInterval(Policy{Preserve: true, Threshold: 10, EarlyRemoval: 5})
	if m.Full() {
		t.Error("early removal did not free capacity")
	}
	if insert(m, key(3), 1) == nil {
		t.Error("insert after cleanup failed")
	}
}

func TestPreserveExactLifecycle(t *testing.T) {
	// An entry preserved across two boundaries stays exact while above
	// threshold.
	m := New(4)
	insert(m, key(1), 5000)
	m.EndInterval(Policy{Preserve: true, Threshold: 1000})
	e := lookup(m, key(1))
	e.Bytes = 3000 // counted exactly during interval 2
	m.EndInterval(Policy{Preserve: true, Threshold: 1000})
	e = lookup(m, key(1))
	if e == nil || !e.Exact {
		t.Error("long-lived large flow lost exactness")
	}
}
