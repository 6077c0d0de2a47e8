package faultinject

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/sampleandhold"
	"repro/internal/flow"
)

func newInner(t *testing.T) *sampleandhold.SampleAndHold {
	t.Helper()
	sh, err := sampleandhold.New(sampleandhold.Config{
		Entries: 64, Threshold: 10, Oversampling: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestPanicAtPacketIsExact(t *testing.T) {
	a := Wrap(newInner(t), Schedule{PanicAtPacket: 5})
	for i := 0; i < 4; i++ {
		a.Process(flow.Key{Lo: uint64(i)}, 100)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("packet 5 did not panic")
		}
	}()
	a.Process(flow.Key{Lo: 5}, 100)
}

func TestPanicAtPacketInsideBatch(t *testing.T) {
	a := Wrap(newInner(t), Schedule{PanicAtPacket: 3})
	keys := []flow.Key{{Lo: 1}, {Lo: 2}, {Lo: 3}, {Lo: 4}}
	sizes := []uint32{10, 10, 10, 10}
	defer func() {
		if recover() == nil {
			t.Fatal("batch did not panic")
		}
		// Packets before the scheduled one were processed.
		if got := a.Inner().Mem().Packets; got != 2 {
			t.Fatalf("inner processed %d packets before panic, want 2", got)
		}
	}()
	core.ProcessBatch(a, nil, keys, sizes)
}

func TestPanicAtInterval(t *testing.T) {
	a := Wrap(newInner(t), Schedule{PanicAtInterval: 2})
	a.Process(flow.Key{Lo: 1}, 100)
	if ests := a.EndInterval(); len(ests) == 0 {
		t.Fatal("first interval reported nothing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("interval 2 did not panic")
		}
	}()
	a.EndInterval()
}

func TestCorruptEstimates(t *testing.T) {
	a := Wrap(newInner(t), Schedule{CorruptEveryEstimates: 2})
	for i := 0; i < 4; i++ {
		a.Process(flow.Key{Lo: uint64(i)}, 1000)
	}
	ests := a.EndInterval()
	if len(ests) != 4 {
		t.Fatalf("got %d estimates", len(ests))
	}
	// Every 2nd estimate is corrupted to 2x+1; the rest are exact counts.
	for i, e := range ests {
		if (i+1)%2 == 0 {
			if e.Bytes != 2001 {
				t.Fatalf("estimate %d = %d, want corrupted 2001", i, e.Bytes)
			}
		} else if e.Bytes != 1000 {
			t.Fatalf("estimate %d = %d, want 1000", i, e.Bytes)
		}
	}
}

func TestDelaySchedule(t *testing.T) {
	a := Wrap(newInner(t), Schedule{DelayEveryPackets: 2, Delay: time.Millisecond})
	start := time.Now()
	for i := 0; i < 6; i++ {
		a.Process(flow.Key{Lo: uint64(i)}, 10)
	}
	if d := time.Since(start); d < 3*time.Millisecond {
		t.Fatalf("6 packets with delay every 2 took %v, want >= 3ms", d)
	}
}

func TestCorruptIsDeterministicAndNonDestructive(t *testing.T) {
	orig := []byte("the quick brown fox jumps over the lazy dog")
	input := append([]byte(nil), orig...)
	a := Corrupt(input, 42, 5)
	b := Corrupt(input, 42, 5)
	if string(a) != string(b) {
		t.Error("same (data, seed, flips) produced different corruption")
	}
	if string(input) != string(orig) {
		t.Error("Corrupt mutated its input")
	}
	if len(a) != len(orig) {
		t.Errorf("Corrupt changed length: %d -> %d", len(orig), len(a))
	}
	var flipped int
	for i := range a {
		if a[i] != orig[i] {
			flipped++
			if a[i] != orig[i]^0xff {
				t.Errorf("byte %d changed to %#x, not an inversion of %#x", i, a[i], orig[i])
			}
		}
	}
	// Positions may repeat (double-inversion restores the byte), so the
	// changed count is bounded by, not equal to, the flip count.
	if flipped == 0 || flipped > 5 {
		t.Errorf("%d bytes changed, want 1..5", flipped)
	}
	if c := Corrupt(input, 43, 5); string(c) == string(a) {
		t.Error("different seeds produced identical corruption")
	}
	if out := Corrupt(nil, 1, 3); len(out) != 0 {
		t.Errorf("Corrupt(nil) = %v", out)
	}
}

func TestTruncateFractions(t *testing.T) {
	data := []byte("0123456789")
	cases := []struct {
		frac float64
		want string
	}{
		{-1, ""}, {0, ""}, {0.5, "01234"}, {0.95, "012345678"}, {1, "0123456789"}, {2, "0123456789"},
	}
	for _, c := range cases {
		if got := Truncate(data, c.frac); string(got) != c.want {
			t.Errorf("Truncate(%.2f) = %q, want %q", c.frac, got, c.want)
		}
	}
	out := Truncate(data, 1)
	out[0] = 'x'
	if data[0] != '0' {
		t.Error("Truncate returned an alias of its input")
	}
}

func TestZeroScheduleIsTransparent(t *testing.T) {
	inner := newInner(t)
	a := Wrap(inner, Schedule{})
	a.Process(flow.Key{Lo: 1}, 500)
	if a.EntriesUsed() != inner.EntriesUsed() || a.Capacity() != 64 || a.Threshold() != 10 {
		t.Fatal("accessors do not pass through")
	}
	if a.EntriesRejected() != 0 {
		t.Fatal("unexpected rejections")
	}
	if ests := a.EndInterval(); len(ests) != 1 || ests[0].Bytes != 500 {
		t.Fatalf("estimates not passed through: %+v", ests)
	}
}
