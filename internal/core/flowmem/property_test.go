package flowmem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/flow"
)

// TestQuickCapacityInvariant: Len never exceeds Capacity under random
// insert/transition sequences.
func TestQuickCapacityInvariant(t *testing.T) {
	check := func(seed int64, capRaw uint8, ops []uint16) bool {
		capacity := 1 + int(capRaw)%32
		m := New(capacity)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				m.Insert(flow.Key{Lo: uint64(op % 64)}, uint64(rng.Intn(10000)))
			case 2:
				if e := m.Lookup(flow.Key{Lo: uint64(op % 64)}); e != nil {
					e.Bytes += uint64(rng.Intn(5000))
				}
			case 3:
				m.EndInterval(Policy{
					Preserve:     op%8 >= 4,
					Threshold:    3000,
					EarlyRemoval: uint64(op % 3 * 500),
				})
			}
			if m.Len() > m.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickEndIntervalPolicy: after a preserving transition, every
// surviving entry is reset, exact, and met the policy; every removed entry
// failed it.
func TestQuickEndIntervalPolicy(t *testing.T) {
	check := func(seed int64, threshold, early uint16) bool {
		th := uint64(threshold) + 1
		r := uint64(early) % th // R < T
		m := New(256)
		rng := rand.New(rand.NewSource(seed))
		type snap struct {
			bytes   uint64
			created bool
		}
		before := map[flow.Key]snap{}
		for i := 0; i < 100; i++ {
			k := flow.Key{Lo: uint64(i)}
			e := m.Insert(k, uint64(rng.Intn(int(th*2))))
			if i%3 == 0 {
				e.CreatedThisInterval = false // simulate an older entry
			}
			before[k] = snap{e.Bytes, e.CreatedThisInterval}
		}
		m.EndInterval(Policy{Preserve: true, Threshold: th, EarlyRemoval: r})
		for k, s := range before {
			e := m.Lookup(k)
			shouldKeep := s.bytes >= th || (s.created && s.bytes >= r)
			if shouldKeep != (e != nil) {
				return false
			}
			if e != nil && (e.Bytes != 0 || !e.Exact || e.CreatedThisInterval) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refMemory is a deliberately naive map-based model of the flow memory —
// the layout the open-addressing table replaced. The differential test
// below drives both through randomized op sequences and demands identical
// observable behavior.
type refMemory struct {
	capacity int
	entries  map[flow.Key]*Entry
	rejected uint64
}

func newRef(capacity int) *refMemory {
	return &refMemory{capacity: capacity, entries: make(map[flow.Key]*Entry)}
}

func (m *refMemory) Lookup(key flow.Key) *Entry { return m.entries[key] }

func (m *refMemory) Insert(key flow.Key, initialBytes uint64) *Entry {
	if len(m.entries) >= m.capacity {
		m.rejected++
		return nil
	}
	if _, exists := m.entries[key]; exists {
		return nil
	}
	e := &Entry{Key: key, Bytes: initialBytes, CreatedThisInterval: true}
	m.entries[key] = e
	return e
}

func (m *refMemory) EndInterval(p Policy) int {
	if !p.Preserve {
		m.entries = make(map[flow.Key]*Entry)
		return 0
	}
	for k, e := range m.entries {
		keep := e.Bytes >= p.Threshold
		if !keep && e.CreatedThisInterval {
			keep = e.Bytes >= p.EarlyRemoval
		}
		if !keep {
			delete(m.entries, k)
			continue
		}
		e.Bytes = 0
		e.Debt = 0
		e.CreatedThisInterval = false
		e.Exact = true
	}
	return len(m.entries)
}

// TestDifferentialVsMapModel: the open-addressing table and the map model
// must agree on every observable — lookup results, insert outcomes,
// rejection counts, lengths, sorted reports and interval survivors — under
// randomized insert/lookup/update/interval sequences, including key
// patterns (dense low bits, Key{0,0}) that stress probing.
func TestDifferentialVsMapModel(t *testing.T) {
	check := func(seed int64, capRaw uint8, ops []uint32) bool {
		capacity := 1 + int(capRaw)%48
		m := New(capacity)
		ref := newRef(capacity)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			// Keys collide on purpose: a small key space with two shapes
			// (low-word-only and full 128-bit) exercises probe chains.
			k := flow.Key{Lo: uint64(op % 97)}
			if op%3 == 0 {
				k.Hi = uint64(op % 5)
			}
			switch op % 5 {
			case 0, 1:
				bytes := uint64(rng.Intn(10000))
				got, want := m.Insert(k, bytes), ref.Insert(k, bytes)
				if (got == nil) != (want == nil) {
					t.Logf("Insert(%v) disagreement", k)
					return false
				}
			case 2:
				got, want := m.Lookup(k), ref.Lookup(k)
				if (got == nil) != (want == nil) {
					t.Logf("Lookup(%v) presence disagreement", k)
					return false
				}
				if got != nil {
					if *got != *want {
						t.Logf("Lookup(%v): %+v vs %+v", k, *got, *want)
						return false
					}
					add := uint64(rng.Intn(5000))
					got.Bytes += add
					want.Bytes += add
				}
			case 3:
				p := Policy{
					Preserve:     op%7 >= 3,
					Threshold:    1 + uint64(op%4)*2500,
					EarlyRemoval: uint64(op % 3 * 500),
				}
				if got, want := m.EndInterval(p), ref.EndInterval(p); got != want {
					t.Logf("EndInterval kept %d vs %d", got, want)
					return false
				}
			case 4:
				rep := m.Report()
				if len(rep) != len(ref.entries) {
					t.Logf("Report len %d vs %d", len(rep), len(ref.entries))
					return false
				}
				for i, e := range rep {
					want := ref.entries[e.Key]
					if want == nil || *want != e {
						t.Logf("Report[%d] = %+v, model has %+v", i, e, want)
						return false
					}
					if i > 0 && e.Bytes > rep[i-1].Bytes {
						t.Log("Report not sorted")
						return false
					}
				}
			}
			if m.Len() != len(ref.entries) || m.Rejected() != ref.rejected {
				t.Logf("Len %d vs %d, Rejected %d vs %d",
					m.Len(), len(ref.entries), m.Rejected(), ref.rejected)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEntryPointerStability: pointers returned by Insert and Lookup must
// stay valid (and keep addressing the same entry) for the whole interval —
// inserts never move existing entries, a property callers rely on when they
// update Bytes through a held pointer.
func TestEntryPointerStability(t *testing.T) {
	m := New(128)
	held := make(map[flow.Key]*Entry)
	for i := 0; i < 128; i++ {
		k := flow.Key{Lo: uint64(i * 13)}
		if e := m.Insert(k, uint64(i)); e != nil {
			held[k] = e
		}
	}
	for k, e := range held {
		if got := m.Lookup(k); got != e {
			t.Fatalf("Lookup(%v) moved: %p vs held %p", k, got, e)
		}
		if e.Key != k {
			t.Fatalf("held pointer for %v now holds %v", k, e.Key)
		}
	}
}

// TestQuickReportConservation: the report reflects exactly the live
// entries, sorted by size.
func TestQuickReportConservation(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		m := New(300)
		rng := rand.New(rand.NewSource(seed))
		want := map[flow.Key]uint64{}
		for i := 0; i < int(n); i++ {
			k := flow.Key{Lo: uint64(i)}
			b := uint64(rng.Intn(100000))
			if m.Insert(k, b) != nil {
				want[k] = b
			}
		}
		rep := m.Report()
		if len(rep) != len(want) {
			return false
		}
		for i, e := range rep {
			if want[e.Key] != e.Bytes {
				return false
			}
			if i > 0 && e.Bytes > rep[i-1].Bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sortReportReference is the comparison sort Report used before its radix
// order: descending Bytes, then descending Key.Hi, then descending Key.Lo.
func sortReportReference(entries []Entry) {
	slices.SortFunc(entries, func(a, b Entry) int {
		if a.Bytes != b.Bytes {
			if a.Bytes > b.Bytes {
				return -1
			}
			return 1
		}
		if a.Key.Hi != b.Key.Hi {
			if a.Key.Hi > b.Key.Hi {
				return -1
			}
			return 1
		}
		if a.Key.Lo != b.Key.Lo {
			if a.Key.Lo > b.Key.Lo {
				return -1
			}
			return 1
		}
		return 0
	})
}

// TestReportOrderMatchesComparator: the radix-ordered Report must return
// exactly the sequence the comparison sort produces, over random tables
// whose counts tie heavily (many zeros, few distinct small values), spread
// over every digit, or reach past 2^32 — across interval transitions, so
// the scratch shared by Report and EndInterval is exercised too.
func TestReportOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	counts := []func() uint64{
		func() uint64 { return 0 },
		func() uint64 { return uint64(rng.Intn(4)) * 1500 },
		func() uint64 { return uint64(rng.Intn(1 << 24)) },
		func() uint64 { return 1<<32 + uint64(rng.Intn(3))<<32 + uint64(rng.Intn(2)) },
		func() uint64 { return rng.Uint64() },
	}
	for round := 0; round < 200; round++ {
		capacity := 1 + rng.Intn(3000)
		m := New(capacity)
		mix := rng.Perm(len(counts))[:1+rng.Intn(len(counts))]
		for interval := 0; interval < 3; interval++ {
			for i := rng.Intn(capacity + 1); i > 0; i-- {
				k := flow.Key{Hi: uint64(rng.Intn(4)), Lo: rng.Uint64() >> uint(rng.Intn(64))}
				e := m.Lookup(k)
				if e == nil {
					e = m.Insert(k, 0)
				}
				if e != nil {
					e.Bytes += counts[mix[rng.Intn(len(mix))]]()
				}
			}
			var want []Entry
			for i, c := range m.ctrl {
				if c != 0 {
					want = append(want, m.slots[i])
				}
			}
			sortReportReference(want)
			if got := m.Report(); !slices.Equal(got, want) {
				t.Fatalf("round %d interval %d: radix report of %d entries differs from the comparator's", round, interval, len(got))
			}
			m.EndInterval(Policy{Preserve: interval%2 == 0, Threshold: 3000})
		}
	}
}

// BenchmarkRunKeySort orders one run of equal-count entries with random keys
// both ways Report can — radix passes and a comparison sort — across run
// lengths around radixRun. Each op copies the run and sorts it.
func BenchmarkRunKeySort(b *testing.B) {
	for _, n := range []int{16, 64, 128, 192, 256, 384, 512, 1024, 4096, 11000} {
		rng := rand.New(rand.NewSource(int64(n)))
		src := make([]Entry, n)
		for i := range src {
			src[i].Key = flow.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
		}
		run := make([]Entry, n)
		recs := make([]radixRec, n)
		tmp := make([]radixRec, n)
		sorts := []struct {
			name string
			sort func()
		}{
			{"sortfunc", func() { slices.SortFunc(run, byKeyDesc) }},
			{"radix", func() { sortByKey(run, recs, tmp) }},
		}
		for _, s := range sorts {
			b.Run(fmt.Sprintf("n=%d/%s", n, s.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(run, src)
					s.sort()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			})
		}
	}
}
