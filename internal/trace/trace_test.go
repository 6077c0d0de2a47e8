package trace

import (
	"io"
	"testing"
	"time"

	"repro/internal/flow"
)

func testMeta() Meta {
	return Meta{
		Name:            "test",
		LinkBytesPerSec: 1e6,
		Interval:        time.Second,
		Intervals:       3,
		HasAS:           true,
	}
}

func TestMetaCapacityAndDuration(t *testing.T) {
	m := Meta{LinkBytesPerSec: 2e6, Interval: 5 * time.Second, Intervals: 4}
	if got := m.Capacity(); got != 1e7 {
		t.Errorf("Capacity = %g", got)
	}
	if got := m.Duration(); got != 20*time.Second {
		t.Errorf("Duration = %v", got)
	}
}

func TestMetaValidate(t *testing.T) {
	good := testMeta()
	if err := good.Validate(); err != nil {
		t.Errorf("valid meta rejected: %v", err)
	}
	bad := []Meta{
		{LinkBytesPerSec: 0, Interval: time.Second, Intervals: 1},
		{LinkBytesPerSec: 1, Interval: 0, Intervals: 1},
		{LinkBytesPerSec: 1, Interval: time.Second, Intervals: 0},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("bad meta %d accepted", i)
		}
	}
}

func mkPacket(at time.Duration, size uint32) flow.Packet {
	return flow.Packet{Time: at, Size: size, SrcIP: 1, DstIP: 2, Proto: 6}
}

func TestReplayIntervalBoundaries(t *testing.T) {
	m := testMeta()
	pkts := []flow.Packet{
		mkPacket(100*time.Millisecond, 100),
		mkPacket(900*time.Millisecond, 200),
		mkPacket(1100*time.Millisecond, 300), // interval 1
		mkPacket(2500*time.Millisecond, 400), // interval 2
	}
	var gotPkts []uint32
	var gotEnds []int
	n, err := Replay(NewSliceSource(m, pkts), FuncConsumer{
		OnPacket:      func(p *flow.Packet) { gotPkts = append(gotPkts, p.Size) },
		OnEndInterval: func(i int) { gotEnds = append(gotEnds, i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("replayed %d packets", n)
	}
	if len(gotPkts) != 4 || gotPkts[0] != 100 || gotPkts[3] != 400 {
		t.Errorf("packets = %v", gotPkts)
	}
	if len(gotEnds) != 3 || gotEnds[0] != 0 || gotEnds[1] != 1 || gotEnds[2] != 2 {
		t.Errorf("interval ends = %v, want [0 1 2]", gotEnds)
	}
}

func TestReplayEmptyIntervals(t *testing.T) {
	// A trace with packets only in the first interval must still close all
	// declared intervals.
	m := testMeta()
	pkts := []flow.Packet{mkPacket(10*time.Millisecond, 50)}
	var ends []int
	_, err := Replay(NewSliceSource(m, pkts), FuncConsumer{
		OnEndInterval: func(i int) { ends = append(ends, i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) != 3 {
		t.Errorf("ends = %v, want 3 interval closes", ends)
	}
}

func TestReplayNoPackets(t *testing.T) {
	m := testMeta()
	count := 0
	_, err := Replay(NewSliceSource(m, nil), FuncConsumer{
		OnEndInterval: func(int) { count++ },
	})
	if err != nil || count != 3 {
		t.Errorf("empty replay: err=%v ends=%d", err, count)
	}
}

func TestReplayLatePacketsClampToLastInterval(t *testing.T) {
	m := testMeta()
	pkts := []flow.Packet{mkPacket(10*time.Second, 99)} // way past the end
	var seen int
	var ends []int
	_, err := Replay(NewSliceSource(m, pkts), FuncConsumer{
		OnPacket:      func(p *flow.Packet) { seen++ },
		OnEndInterval: func(i int) { ends = append(ends, i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 || len(ends) != 3 {
		t.Errorf("seen=%d ends=%v", seen, ends)
	}
}

func TestReplayOutOfOrderRejected(t *testing.T) {
	m := testMeta()
	pkts := []flow.Packet{
		mkPacket(1500*time.Millisecond, 1),
		mkPacket(100*time.Millisecond, 2), // earlier interval: must error
	}
	if _, err := Replay(NewSliceSource(m, pkts), FuncConsumer{}); err == nil {
		t.Error("out-of-order packets accepted")
	}
}

func TestSliceSourceResetAndCollect(t *testing.T) {
	m := testMeta()
	pkts := []flow.Packet{mkPacket(0, 1), mkPacket(time.Millisecond, 2)}
	s := NewSliceSource(m, pkts)
	collected, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Error("source not drained after Collect")
	}
	s.Reset()
	if p, err := s.Next(); err != nil || p.Size != 1 {
		t.Errorf("after Reset: %v %v", p, err)
	}
	if collected.Meta() != m {
		t.Error("Collect lost metadata")
	}
	if p, _ := collected.Next(); p.Size != 1 {
		t.Error("Collect lost packets")
	}
}

// eventRecorder records the interleaving of packets and interval boundaries;
// when batch is true it also implements BatchConsumer and records batch
// sizes, so tests can check batching invariants.
type eventRecorder struct {
	batch   bool
	events  []string
	batches []int
}

func (r *eventRecorder) Packet(p *flow.Packet) {
	r.events = append(r.events, "p", string(rune('0'+p.Size%10)))
}

func (r *eventRecorder) EndInterval(i int) {
	r.events = append(r.events, "iv")
}

// batchRecorder wraps eventRecorder with a PacketBatch method.
type batchRecorder struct{ eventRecorder }

func (r *batchRecorder) PacketBatch(pkts []flow.Packet) {
	r.batches = append(r.batches, len(pkts))
	for i := range pkts {
		r.Packet(&pkts[i])
	}
}

func replayEvents(t *testing.T, pkts []flow.Packet, m Meta) []string {
	t.Helper()
	var r eventRecorder
	if _, err := Replay(NewSliceSource(m, pkts), &r); err != nil {
		t.Fatal(err)
	}
	return r.events
}

func sameEvents(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReplayBatchedSameSequence: batched replay delivers the exact
// packet/interval interleaving of Replay, for batch-capable and plain
// consumers, across batch sizes that do and do not divide the trace.
func TestReplayBatchedSameSequence(t *testing.T) {
	m := testMeta()
	var pkts []flow.Packet
	for iv := 0; iv < m.Intervals; iv++ {
		for i := 0; i < 17; i++ {
			pkts = append(pkts, mkPacket(time.Duration(iv)*time.Second+time.Duration(i)*time.Millisecond, uint32(iv*17+i)))
		}
	}
	want := replayEvents(t, pkts, m)
	for _, bs := range []int{1, 3, 17, 64, 0 /* default */} {
		var br batchRecorder
		n, err := Replay(NewSliceSource(m, pkts), &br, WithBatchSize(bs))
		if err != nil {
			t.Fatalf("batch size %d: %v", bs, err)
		}
		if n != len(pkts) {
			t.Errorf("batch size %d: replayed %d packets, want %d", bs, n, len(pkts))
		}
		if !sameEvents(br.events, want) {
			t.Errorf("batch size %d: event sequence diverges from Replay", bs)
		}
		limit := bs
		if limit <= 0 {
			limit = DefaultBatchSize
		}
		for _, got := range br.batches {
			if got < 1 || got > limit {
				t.Errorf("batch size %d: delivered batch of %d", bs, got)
			}
		}
		// Per-packet fallback for consumers without PacketBatch.
		var plain eventRecorder
		if _, err := Replay(NewSliceSource(m, pkts), &plain, WithBatchSize(bs)); err != nil {
			t.Fatal(err)
		}
		if !sameEvents(plain.events, want) {
			t.Errorf("batch size %d: plain-consumer sequence diverges from Replay", bs)
		}
	}
}

// TestReplayBatchedNeverSpansBoundary: a batch is always flushed before an
// interval boundary, even mid-batch.
func TestReplayBatchedNeverSpansBoundary(t *testing.T) {
	m := testMeta()
	// 5 packets in interval 0, then one in interval 2: the open batch (5 <
	// batchSize 8) must be flushed before the two EndInterval calls.
	pkts := []flow.Packet{
		mkPacket(0, 1), mkPacket(1*time.Millisecond, 2), mkPacket(2*time.Millisecond, 3),
		mkPacket(3*time.Millisecond, 4), mkPacket(4*time.Millisecond, 5),
		mkPacket(2100*time.Millisecond, 6),
	}
	var br batchRecorder
	if _, err := Replay(NewSliceSource(m, pkts), &br, WithBatchSize(8)); err != nil {
		t.Fatal(err)
	}
	if len(br.batches) != 2 || br.batches[0] != 5 || br.batches[1] != 1 {
		t.Fatalf("batches = %v, want [5 1]", br.batches)
	}
	if !sameEvents(br.events, replayEvents(t, pkts, m)) {
		t.Error("event sequence diverges from Replay")
	}
}

// TestReplayBatchedErrors: metadata and ordering failures match Replay.
func TestReplayBatchedErrors(t *testing.T) {
	var r batchRecorder
	if _, err := Replay(NewSliceSource(Meta{}, nil), &r, WithBatchSize(4)); err == nil {
		t.Error("invalid meta accepted")
	}
	m := testMeta()
	ooo := []flow.Packet{mkPacket(1500*time.Millisecond, 1), mkPacket(100*time.Millisecond, 2)}
	if _, err := Replay(NewSliceSource(m, ooo), &r, WithBatchSize(4)); err == nil {
		t.Error("out-of-order trace accepted")
	}
}

// TestReplayWithStop: the stop hook is polled at batch boundaries; once it
// fires, Replay has delivered every packet it counted, closes no further
// interval and returns ErrStopped. A hook that never fires changes nothing.
func TestReplayWithStop(t *testing.T) {
	var pkts []flow.Packet
	for i := 0; i < 5; i++ {
		pkts = append(pkts, mkPacket(time.Duration(i)*100*time.Millisecond, uint32(i+1)))
	}
	pkts = append(pkts, mkPacket(1500*time.Millisecond, 7))
	// stopAfter returns a hook that fires on its (n+1)th poll.
	stopAfter := func(n int) func() bool {
		polls := 0
		return func() bool {
			polls++
			return polls > n
		}
	}
	cases := []struct {
		name      string
		polls     int
		wantN     int
		wantErr   error
		wantEvent []string
	}{
		{"immediately", 0, 0, ErrStopped, nil},
		{"after_first_batch", 1, 2, ErrStopped, []string{"p", "1", "p", "2"}},
		{"never", 100, 6, nil, replayEvents(t, pkts, testMeta())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r batchRecorder
			n, err := Replay(NewSliceSource(testMeta(), pkts), &r,
				WithBatchSize(2), WithStop(stopAfter(tc.polls)))
			if err != tc.wantErr {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if n != tc.wantN {
				t.Errorf("replayed %d packets, want %d", n, tc.wantN)
			}
			if !sameEvents(r.events, tc.wantEvent) {
				t.Errorf("events = %v, want %v", r.events, tc.wantEvent)
			}
		})
	}
}
