package reliable

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// durableConfig is fastConfig plus a disk spool.
func durableConfig(addr, dir string) ExporterConfig {
	cfg := fastConfig(addr)
	cfg.SpoolDir = dir
	return cfg
}

// TestDurableSpoolReplayAfterRestart kills an exporter (no collector ever
// answered, so every frame is unacknowledged) and verifies its successor
// recovers the full backlog from disk and delivers it, in order, under the
// original sequence numbers.
func TestDurableSpoolReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()

	cfg := durableConfig("127.0.0.1:1", dir) // reserved port: nothing acks
	cfg.DrainTimeout = time.Millisecond
	exp, err := NewExporter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		exp.Enqueue(mkPkts(2, fmt.Sprintf("rep%d", i)))
	}
	exp.Close() //nolint:errcheck // undelivered-at-close is the point

	snk := &sink{}
	srv, addr, err := Listen("127.0.0.1:0", ServerConfig{}, snk.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	exp2, err := NewExporter(durableConfig(addr.String(), dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()

	rec := exp2.Recovered()
	if rec.Frames != 6 || rec.LastReport != 3 || rec.NextSeq != 6 || rec.TornRecords != 0 {
		t.Fatalf("recovery = %+v, want 6 frames, report 3, seq 6, 0 torn", rec)
	}
	waitFor(t, "recovered backlog delivered", func() bool { return len(snk.got()) == 6 })
	want := []string{"rep1-0", "rep1-1", "rep2-0", "rep2-1", "rep3-0", "rep3-1"}
	if got := snk.got(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if d := srv.Stats().Duplicates; d != 0 {
		t.Fatalf("duplicates = %d, want 0", d)
	}
}

// TestDurableSpoolAckedFramesNotRedelivered verifies the ack journal: frames
// the collector acknowledged in a previous exporter life are not in the
// recovered backlog, and the restarted exporter's sequences continue rather
// than reuse.
func TestDurableSpoolAckedFramesNotRedelivered(t *testing.T) {
	dir := t.TempDir()
	snk := &sink{}
	srv, addr, err := Listen("127.0.0.1:0", ServerConfig{}, snk.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	exp, err := NewExporter(durableConfig(addr.String(), dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	exp.Enqueue(mkPkts(2, "a"))
	waitFor(t, "first report acked", func() bool { return exp.Backlog() == 0 })
	if err := exp.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}

	exp2, err := NewExporter(durableConfig(addr.String(), dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()
	rec := exp2.Recovered()
	if rec.Frames != 0 || rec.NextSeq != 2 || rec.LastAck != 2 || rec.LastReport != 1 {
		t.Fatalf("recovery = %+v, want empty backlog, seq/ack 2, report 1", rec)
	}
	exp2.Enqueue(mkPkts(2, "b"))
	waitFor(t, "second report delivered", func() bool { return len(snk.got()) == 4 })
	want := []string{"a-0", "a-1", "b-0", "b-1"}
	if got := snk.got(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	st := srv.Stats()
	if st.Duplicates != 0 || st.PerExporter[7].NextSeq != 5 {
		t.Fatalf("stats = %+v, want 0 duplicates, next seq 5", st)
	}
}

// TestDurableSpoolTornTailTruncated injects a short write mid-journal (the
// torn final record a SIGKILL leaves) and verifies recovery truncates back
// to the last committed report, counts the damage, and keeps going.
func TestDurableSpoolTornTailTruncated(t *testing.T) {
	dir := t.TempDir()

	cfg := durableConfig("127.0.0.1:1", dir)
	cfg.DrainTimeout = time.Millisecond
	// Writes per report: data, then commit. The 4th write is report 2's
	// commit record — torn, so report 2 was never visible to the sender.
	cfg.SpoolWrap = func(f SpoolFile) SpoolFile {
		return faultinject.NewWriter(f, faultinject.WriterSchedule{ShortWriteAt: 4})
	}
	exp, err := NewExporter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	exp.Enqueue(mkPkts(1, "good"))
	exp.Enqueue(mkPkts(1, "torn"))
	if errs := exp.Durability().Snapshot().JournalErrors; errs != 1 {
		t.Fatalf("journal errors = %d, want 1 (short write must disable the journal)", errs)
	}
	exp.Close() //nolint:errcheck // backlog is undeliverable by design here

	fast := durableConfig("127.0.0.1:1", dir)
	fast.DrainTimeout = time.Millisecond
	exp2, err := NewExporter(fast, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()
	rec := exp2.Recovered()
	if rec.Frames != 1 || rec.LastReport != 1 || rec.TornRecords == 0 {
		t.Fatalf("recovery = %+v, want exactly report 1 recovered with a torn tail counted", rec)
	}
	// Recovery truncated the segment: a third open must find a clean tail.
	exp2.Close() //nolint:errcheck
	exp3, err := NewExporter(fast, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer exp3.Close()
	if rec := exp3.Recovered(); rec.Frames != 1 || rec.TornRecords != 0 {
		t.Fatalf("post-truncation recovery = %+v, want 1 frame, 0 torn", rec)
	}
}

// TestDurableSpoolAckTruncatesSegments forces tiny segments and verifies
// acked ones are deleted from disk.
func TestDurableSpoolAckTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	snk := &sink{}
	srv, addr, err := Listen("127.0.0.1:0", ServerConfig{}, snk.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := durableConfig(addr.String(), dir)
	cfg.SpoolSegmentBytes = 64 // every report rotates
	exp, err := NewExporter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	for i := 0; i < 8; i++ {
		exp.Enqueue(mkPkts(1, fmt.Sprintf("seg%d", i)))
	}
	waitFor(t, "all reports acked", func() bool { return exp.Backlog() == 0 })
	waitFor(t, "acked segments deleted", func() bool {
		segs, _ := filepath.Glob(filepath.Join(dir, "spool-*.seg"))
		return len(segs) <= 2
	})
	if tr := exp.Durability().Snapshot().Truncations; tr == 0 {
		t.Fatal("no segment truncations recorded despite full ack")
	}
}

// splitState is the test aggregator's snapshot codec: delivered payloads
// joined by newline.
func joinState(payloads []string) []byte { return []byte(strings.Join(payloads, "\n")) }
func splitState(b []byte) []string {
	if len(b) == 0 {
		return nil
	}
	return strings.Split(string(b), "\n")
}

// TestJournalSnapshotAndReplay exercises the collector journal directly:
// WAL-only recovery, then snapshot+WAL recovery, with watermarks intact.
func TestJournalSnapshotAndReplay(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := OpenJournal(JournalConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != nil || len(rec.Frames) != 0 {
		t.Fatalf("fresh journal recovered %+v", rec)
	}
	var agg []string
	for seq := uint64(1); seq <= 3; seq++ {
		p := fmt.Sprintf("frame-%d", seq)
		j.Deliver(7, seq, []byte(p), func() { agg = append(agg, p) })
	}
	// Crash without snapshot: WAL-only recovery.
	j2, rec2, err := OpenJournal(JournalConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg2 := splitState(rec2.State)
	for _, f := range rec2.Frames {
		agg2 = append(agg2, string(f.Payload))
	}
	if !reflect.DeepEqual(agg2, agg) || rec2.Watermarks[7] != 4 {
		t.Fatalf("WAL recovery: agg=%v watermark=%d, want %v / 4", agg2, rec2.Watermarks[7], agg)
	}

	// Snapshot, deliver more, crash: snapshot + WAL tail recovery.
	if err := j2.Snapshot(func() []byte { return joinState(agg2) }); err != nil {
		t.Fatal(err)
	}
	j2.Deliver(7, 4, []byte("frame-4"), func() { agg2 = append(agg2, "frame-4") })
	j2.Deliver(9, 1, []byte("other-1"), func() { agg2 = append(agg2, "other-1") })

	j3, rec3, err := OpenJournal(JournalConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	agg3 := splitState(rec3.State)
	for _, f := range rec3.Frames {
		agg3 = append(agg3, string(f.Payload))
	}
	if !reflect.DeepEqual(agg3, agg2) {
		t.Fatalf("snapshot+WAL recovery: agg=%v, want %v", agg3, agg2)
	}
	if rec3.Watermarks[7] != 5 || rec3.Watermarks[9] != 2 {
		t.Fatalf("watermarks = %v, want 7→5, 9→2", rec3.Watermarks)
	}
	if len(rec3.Frames) != 2 {
		t.Fatalf("replayed %d frames, want 2 (snapshot covers the rest)", len(rec3.Frames))
	}
	// Snapshot GC'd the pre-snapshot WAL segments.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) > 2 {
		t.Fatalf("%d WAL segments on disk after snapshot, want ≤ 2: %v", len(segs), segs)
	}
}

// TestJournalTornTailTruncated injects a short write into the WAL and
// verifies recovery keeps every intact frame and truncates the torn one.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := JournalConfig{Dir: dir, Wrap: func(f SpoolFile) SpoolFile {
		return faultinject.NewWriter(f, faultinject.WriterSchedule{ShortWriteAt: 3})
	}}
	j, _, err := OpenJournal(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		j.Deliver(7, seq, []byte(fmt.Sprintf("frame-%d", seq)), nil)
	}
	if errs := j.Durability().Snapshot().JournalErrors; errs != 1 {
		t.Fatalf("journal errors = %d, want 1", errs)
	}

	j2, rec, err := OpenJournal(JournalConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rec.Frames) != 2 || rec.TornRecords == 0 {
		t.Fatalf("recovery = %d frames, %d torn, want 2 frames and a torn tail", len(rec.Frames), rec.TornRecords)
	}
	if rec.Watermarks[7] != 3 {
		t.Fatalf("watermark = %d, want 3 (frame 3 was torn, so it is redeliverable)", rec.Watermarks[7])
	}
}

// startJournaledCollector is one collector life in the double-restart test:
// open the journal, rebuild the aggregation state it recovered, and serve
// on addr with delivery journaled.
func startJournaledCollector(t *testing.T, dir, addr string) (*Journal, *Server, *[]string, *Recovery) {
	t.Helper()
	j, rec, err := OpenJournal(JournalConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := new([]string)
	*agg = splitState(rec.State)
	for _, f := range rec.Frames {
		*agg = append(*agg, string(f.Payload))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var smu = make(chan struct{}, 1)
	smu <- struct{}{}
	srv := NewServer(ln, ServerConfig{Journal: j}, func(_, _ uint64, payload []byte) {
		<-smu
		*agg = append(*agg, string(payload))
		smu <- struct{}{}
	})
	return j, srv, agg, rec
}

// TestCollectorDoubleRestart crashes the journaled collector twice. Each
// successor is fed by a fresh deterministic exporter that replays the whole
// producer history from sequence 1 (the worst case: its hello carries ack
// 0, so only the journal's recovered watermark prevents re-counting). The
// cumulative ack must never regress, Duplicates must be exactly the
// replayed prefix, and the final aggregate must match the reference run
// byte for byte.
func TestCollectorDoubleRestart(t *testing.T) {
	dir := t.TempDir()

	// Pin a port so restarted collectors are reachable at the same address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	produce := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("pkt-%d", i+1))
		}
		return out
	}
	runExporter := func(total int) {
		t.Helper()
		exp, err := NewExporter(fastConfig(addr), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range produce(total) {
			exp.Enqueue([][]byte{p})
		}
		waitFor(t, fmt.Sprintf("backlog drained at %d reports", total), func() bool {
			return exp.Backlog() == 0
		})
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Life 1: frames 1..2, crash with WAL only (no snapshot, no Close).
	_, srv1, agg1, _ := startJournaledCollector(t, dir, addr)
	runExporter(2)
	waitFor(t, "life 1 aggregated", func() bool { return len(*agg1) == 2 })
	srv1.Close()

	// A restarted exporter resends from frame 1, so the first frame is always
	// a duplicate. The collector's cumulative re-ack may reach the exporter
	// before it has resent the rest of the already-delivered prefix, so
	// anywhere from one to all of that prefix arrives again.
	checkDuplicates := func(life int, srv *Server, prefix uint64) {
		t.Helper()
		if d := srv.Stats().Duplicates; d < 1 || d > prefix {
			t.Fatalf("life %d duplicates = %d, want 1..%d (the replayed prefix)", life, d, prefix)
		}
	}

	// Life 2: recovers 1..2 from WAL; replay 1..4 → 1..2 duplicates.
	j2, srv2, agg2, rec2 := startJournaledCollector(t, dir, addr)
	if rec2.Watermarks[7] != 3 {
		t.Fatalf("life 2 watermark = %d, want 3", rec2.Watermarks[7])
	}
	runExporter(4)
	waitFor(t, "life 2 aggregated", func() bool { return len(*agg2) == 4 })
	checkDuplicates(2, srv2, 2)
	if err := j2.Snapshot(func() []byte { return joinState(*agg2) }); err != nil {
		t.Fatal(err)
	}
	srv2.Close()

	// Life 3: recovers 1..4 from the snapshot; replay 1..5 → 1..4 duplicates.
	j3, srv3, agg3, rec3 := startJournaledCollector(t, dir, addr)
	defer func() { srv3.Close(); j3.Close() }()
	if rec3.Watermarks[7] != 5 {
		t.Fatalf("life 3 watermark = %d, want 5 (must not regress across two crashes)", rec3.Watermarks[7])
	}
	runExporter(5)
	waitFor(t, "life 3 aggregated", func() bool { return len(*agg3) == 5 })
	checkDuplicates(3, srv3, 4)

	want := []string{"pkt-1", "pkt-2", "pkt-3", "pkt-4", "pkt-5"}
	if !reflect.DeepEqual(*agg3, want) {
		t.Fatalf("final aggregate %v, want %v — lost or double-counted frames", *agg3, want)
	}
	if st := srv3.Stats().PerExporter[7]; st.NextSeq != 6 {
		t.Fatalf("final next seq = %d, want 6", st.NextSeq)
	}
}

// TestDurableSpoolDiskCap verifies the on-disk DropOldest: with a byte cap
// and no collector, old closed segments are shed instead of filling the
// disk, and recovery honors the hole.
func TestDurableSpoolDiskCap(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig("127.0.0.1:1", dir)
	cfg.DrainTimeout = time.Millisecond
	cfg.SpoolSegmentBytes = 64
	cfg.SpoolMaxBytes = 256
	exp, err := NewExporter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		exp.Enqueue(mkPkts(1, fmt.Sprintf("cap%02d", i)))
	}
	exp.Close() //nolint:errcheck // nothing is listening

	var total int64
	segs, _ := filepath.Glob(filepath.Join(dir, "spool-*.seg"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			total += fi.Size()
		}
	}
	// The cap bounds closed segments; allow the open one on top.
	if total > 256+64+int64(len(segMagic)) {
		t.Fatalf("spool holds %d bytes across %d segments, cap is 256", total, len(segs))
	}

	cfg2 := durableConfig("127.0.0.1:1", dir)
	cfg2.DrainTimeout = time.Millisecond
	exp2, err := NewExporter(cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()
	rec := exp2.Recovered()
	if rec.Frames == 0 || rec.Frames >= 32 {
		t.Fatalf("recovered %d frames, want a sheds-oldest subset of 32", rec.Frames)
	}
	if rec.NextSeq != 32 {
		t.Fatalf("recovered next seq = %d, want 32 (shedding must not rewind sequences)", rec.NextSeq)
	}
}

// TestRingWrapJournalRecoveryReplaysSurvivors pins the interaction between
// the in-memory ring's DropOldest eviction and the disk journal under a
// sustained multi-segment outage: the ring wraps and sheds its oldest
// frames while the journal retains every committed frame across several
// segments. Recovery must reload exactly the frames that survived the
// ring — the newest SpoolFrames — count the rest as discarded, and the
// restarted exporter must deliver exactly those survivors, with the hole
// accounted as a sequence gap at the collector, never double-counted.
func TestRingWrapJournalRecoveryReplaysSurvivors(t *testing.T) {
	const (
		ring    = 8
		reports = 40
	)
	dir := t.TempDir()

	cfg := durableConfig("127.0.0.1:1", dir) // reserved port: nothing acks
	cfg.SpoolFrames = ring
	cfg.SpoolSegmentBytes = 256 // a handful of frames per segment
	cfg.DrainTimeout = time.Millisecond
	exp, err := NewExporter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= reports; i++ {
		exp.Enqueue(mkPkts(1, fmt.Sprintf("rep%02d", i)))
	}
	if ts := exp.Telemetry().Snapshot(); ts.FramesDropped != reports-ring {
		t.Fatalf("ring evicted %d frames, want %d", ts.FramesDropped, reports-ring)
	}
	exp.Close() //nolint:errcheck // undelivered-at-close is the point

	// The outage really spanned segments: the journal retained the evicted
	// frames across several files.
	segs, err := filepath.Glob(filepath.Join(dir, "spool-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("journal used %d segments, want a multi-segment outage (>= 3)", len(segs))
	}

	snk := &sink{}
	srv, addr, err := Listen("127.0.0.1:0", ServerConfig{}, snk.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg2 := durableConfig(addr.String(), dir)
	cfg2.SpoolFrames = ring
	cfg2.SpoolSegmentBytes = 256
	exp2, err := NewExporter(cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := exp2.Recovered()
	if rec.Frames != ring || rec.Discarded != reports-ring || rec.NextSeq != reports || rec.LastAck != 0 {
		t.Fatalf("recovery = %+v, want %d survivors, %d discarded, seq %d, ack 0",
			rec, ring, reports-ring, reports)
	}

	// Exactly the survivors arrive — the newest ring's worth, in order,
	// under their original sequence numbers.
	waitFor(t, "survivors delivered", func() bool { return len(snk.got()) == ring })
	want := make([]string, 0, ring)
	for i := reports - ring + 1; i <= reports; i++ {
		want = append(want, fmt.Sprintf("rep%02d-0", i))
	}
	if got := snk.got(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	waitFor(t, "survivors acked", func() bool { return exp2.Backlog() == 0 })
	st := srv.Stats()
	es := st.PerExporter[7]
	if st.Duplicates != 0 || es.Gaps != uint64(reports-ring) {
		t.Fatalf("stats = %+v, want 0 duplicates and the %d evicted frames as gaps", st, reports-ring)
	}
	if err := exp2.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}

	// A third life finds nothing left to replay: the ack journal covers the
	// survivors and the discarded hole alike.
	exp3, err := NewExporter(cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer exp3.Close()
	rec = exp3.Recovered()
	if rec.Frames != 0 || rec.Discarded != 0 || rec.LastAck != reports {
		t.Fatalf("third-life recovery = %+v, want empty backlog at ack %d", rec, reports)
	}
}
