package reliable

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// syncGateFile is a WAL segment wrapper that records how many bytes were
// written and how many of them the last Sync made durable, and that can
// hold one Sync until the test releases it.
type syncGateFile struct {
	SpoolFile

	mu      sync.Mutex
	written int64
	synced  int64
	hold    chan struct{} // when set, the next Sync waits on it
	blocked chan struct{} // signalled when a Sync starts waiting
}

func (g *syncGateFile) Write(p []byte) (int, error) {
	n, err := g.SpoolFile.Write(p)
	g.mu.Lock()
	g.written += int64(n)
	g.mu.Unlock()
	return n, err
}

func (g *syncGateFile) Sync() error {
	g.mu.Lock()
	hold := g.hold
	g.hold = nil
	upTo := g.written
	g.mu.Unlock()
	if hold != nil {
		g.blocked <- struct{}{}
		<-hold
	}
	if err := g.SpoolFile.Sync(); err != nil {
		return err
	}
	g.mu.Lock()
	g.synced = max(g.synced, upTo)
	g.mu.Unlock()
	return nil
}

// holdNextSync arms the gate and returns its release.
func (g *syncGateFile) holdNextSync() (release func()) {
	hold := make(chan struct{})
	g.mu.Lock()
	g.hold = hold
	g.mu.Unlock()
	return func() { close(hold) }
}

func (g *syncGateFile) syncedBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.synced
}

// TestAckAfterGroupCommit drives the collector's group commit with a raw
// client. Frame 1 is delivered alone and its WAL fsync is held; frames
// 2..n arrive meanwhile and must be drained, journaled and fsynced as one
// batch, and acked once, cumulatively. Every ack must arrive only after the
// WAL prefix holding the acked frame was synced. A duplicate-only batch is
// re-acked at next−1 without touching the WAL, and a batch with a hole in
// it accounts the gap and still commits once.
func TestAckAfterGroupCommit(t *testing.T) {
	const n = 20
	gate := &syncGateFile{blocked: make(chan struct{}, 1)}
	j, _, err := OpenJournal(JournalConfig{Dir: t.TempDir(), Wrap: func(f SpoolFile) SpoolFile {
		gate.SpoolFile = f
		return gate
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	var (
		hmu  sync.Mutex
		seen []uint64
	)
	srv, addr, err := Listen("127.0.0.1:0", ServerConfig{Journal: j}, func(_, seq uint64, _ []byte) {
		hmu.Lock()
		seen = append(seen, seq)
		hmu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendHello(nil, 9, 0)); err != nil {
		t.Fatal(err)
	}

	// walEnd[seq] is the WAL byte offset (past the segment magic) where the
	// record of a journaled frame ends.
	walEnd := map[uint64]int64{}
	var walBytes int64
	payload := func(seq uint64) []byte { return []byte(fmt.Sprintf("frame-%03d", seq)) }
	send := func(seqs ...uint64) {
		t.Helper()
		var wire []byte
		for _, seq := range seqs {
			wire = appendDataFrame(wire, seq, payload(seq))
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	journaled := func(seqs ...uint64) {
		for _, seq := range seqs {
			walBytes += int64(recOverhead + 16 + len(payload(seq)))
			walEnd[seq] = walBytes
		}
	}
	var buf []byte
	readAck := func() uint64 {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := readFrame(conn, &buf, DefaultMaxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		if f.typ != frameAck {
			t.Fatalf("got frame %q, want an ack", f.typ)
		}
		if synced := gate.syncedBytes(); synced < walEnd[f.seq] {
			t.Fatalf("ack %d arrived with %d WAL bytes synced; its frame ends at %d", f.seq, synced, walEnd[f.seq])
		}
		return f.seq
	}
	// behindHeldSync delivers lead alone, holds its fsync until rest is
	// queued behind it, then releases: lead and rest are two group commits.
	behindHeldSync := func(lead uint64, rest ...uint64) {
		t.Helper()
		// Stats would wait on the exporter lock the held commit owns; the
		// frame counter alone is lock-free.
		want := srv.frames.Load() + 1 + uint64(len(rest))
		defer gate.holdNextSync()()
		send(lead)
		select {
		case <-gate.blocked:
		case <-time.After(5 * time.Second):
			t.Fatal("lead frame's fsync never started")
		}
		send(rest...)
		waitFor(t, "rest of the batch queued", func() bool { return srv.frames.Load() == want })
	}
	fsyncs := func() uint64 { return j.Durability().Snapshot().Fsyncs }

	// Frame 1 alone, then 2..n as one batch: two fsyncs, two acks.
	rest := make([]uint64, 0, n-1)
	for seq := uint64(2); seq <= n; seq++ {
		rest = append(rest, seq)
	}
	journaled(1)
	journaled(rest...)
	behindHeldSync(1, rest...)
	if got := readAck(); got != 1 {
		t.Fatalf("first ack = %d, want 1", got)
	}
	if got := readAck(); got != n {
		t.Fatalf("second ack = %d, want %d (one cumulative ack for the batch)", got, n)
	}
	if got := fsyncs(); got != 2 {
		t.Fatalf("fsyncs = %d, want 2 (frame 1 alone, then frames 2..%d as one batch)", got, n)
	}

	// A duplicate-only batch: re-acked at next−1, nothing journaled.
	send(n-2, n-1, n)
	if got := readAck(); got != n {
		t.Fatalf("duplicate re-ack = %d, want %d", got, n)
	}
	waitFor(t, "duplicates classified", func() bool { return srv.Stats().Duplicates == 3 })
	if got := fsyncs(); got != 2 {
		t.Fatalf("fsyncs after a duplicate-only batch = %d, want 2", got)
	}

	// A batch with a hole: n+3 never arrives.
	journaled(n+1, n+2, n+4, n+5)
	behindHeldSync(n+1, n+2, n+4, n+5)
	acks := []uint64{readAck()}
	for acks[len(acks)-1] == n { // trailing re-acks of the duplicate batch
		acks = append(acks, readAck())
	}
	acks = append(acks, readAck())
	if got := acks[len(acks)-2:]; !slices.Equal(got, []uint64{n + 1, n + 5}) {
		t.Fatalf("acks after the gap batch = %v, want [... %d %d]", acks, n+1, n+5)
	}
	if got := fsyncs(); got != 4 {
		t.Fatalf("fsyncs = %d, want 4", got)
	}

	st := srv.Stats()
	if st.Gaps != 1 || st.Duplicates != 3 || st.Delivered != n+4 {
		t.Fatalf("stats gaps=%d duplicates=%d delivered=%d, want 1, 3, %d", st.Gaps, st.Duplicates, st.Delivered, n+4)
	}
	if next := st.PerExporter[9].NextSeq; next != n+6 {
		t.Fatalf("next seq = %d, want %d", next, n+6)
	}
	want := make([]uint64, 0, n+4)
	for seq := uint64(1); seq <= n+5; seq++ {
		if seq != n+3 {
			want = append(want, seq)
		}
	}
	hmu.Lock()
	defer hmu.Unlock()
	if !slices.Equal(seen, want) {
		t.Fatalf("handler saw %v, want %v", seen, want)
	}
}
