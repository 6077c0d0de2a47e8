package reliable

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cfgerr"
	"repro/internal/telemetry"
)

// Journal is the collector's crash-safe state: a write-ahead log of every
// delivered frame plus a periodic snapshot of the application's accumulated
// totals and the per-exporter sequence watermarks. Frames are journaled in
// group commits — a batch is appended and, under the frame/batch fsync
// policies, made durable — inside the same critical section that hands them
// to the aggregation handler and before the batch's ack goes back to the
// exporter, so "acked" implies "recoverable": a
// restarted collector replays the WAL on top of the last snapshot and
// neither regresses its cumulative acks nor re-counts frames it already
// folded in.
//
// The snapshot is atomic (write-temp, fsync, rename) and truncates the WAL,
// so the journal's disk footprint is one snapshot plus the frames delivered
// since it was taken.
type Journal struct {
	cfg JournalConfig
	tel *telemetry.Durable

	mu         sync.Mutex
	w          segmentWriter
	segs       []uint64 // closed segment indices awaiting snapshot GC
	watermarks map[uint64]uint64
}

// snapRecord is the snapshot's record type: watermark table + state blob.
const recSnap = 's'

// JournalConfig configures the collector journal.
type JournalConfig struct {
	// Dir is the state directory; created if missing.
	Dir string
	// Fsync is the WAL fsync policy (default FsyncPerBatch — one fsync per
	// group commit, i.e. per batch of frames the server drains from one
	// connection, before the batch's cumulative ack). FsyncPerFrame fsyncs
	// every frame. FsyncTimer and FsyncNone are faster but open a window
	// where a SIGKILL loses frames the exporter was already told to forget.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncTimer cadence (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates WAL segments past this size (default 4 MiB).
	SegmentBytes int64
	// Wrap, when set, wraps each opened segment file — the fault-injection
	// seam for tests.
	Wrap func(SpoolFile) SpoolFile
}

// Validate checks the configuration.
func (c JournalConfig) Validate() error {
	if c.Dir == "" {
		return cfgerr.New("netflow/reliable", "Dir", "must be set")
	}
	if c.SegmentBytes < 0 {
		return cfgerr.New("netflow/reliable", "SegmentBytes", "must not be negative, got %d", c.SegmentBytes)
	}
	if c.FsyncInterval < 0 {
		return cfgerr.New("netflow/reliable", "FsyncInterval", "must not be negative, got %v", c.FsyncInterval)
	}
	return nil
}

func (c JournalConfig) withDefaults() JournalConfig {
	if c.FsyncInterval == 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 4 << 20
	}
	return c
}

// JournaledFrame is one WAL frame replayed at recovery.
type JournaledFrame struct {
	Exporter uint64
	Seq      uint64
	Payload  []byte
}

// Recovery is what OpenJournal found on disk. The caller restores its
// aggregation state from State (the last snapshot's blob, nil if none) and
// then re-applies Frames in order; Watermarks seed the server so its
// cumulative acks resume exactly where durable state ends.
type Recovery struct {
	// Watermarks maps exporter ID to the next expected sequence (the
	// recovered cumulative ack + 1), WAL replay included.
	Watermarks map[uint64]uint64
	// State is the application blob stored in the last snapshot, nil when
	// no snapshot exists.
	State []byte
	// Frames are the WAL frames past the snapshot's watermarks, in delivery
	// order — re-apply them to the restored state.
	Frames []JournaledFrame
	// TornRecords and TornBytes count what crash-recovery truncated.
	TornRecords int
	TornBytes   int64
}

// OpenJournal opens (or creates) the journal in cfg.Dir, recovers snapshot
// and WAL, truncates torn tails, and resumes logging. tel may be nil.
func OpenJournal(cfg JournalConfig, tel *telemetry.Durable) (*Journal, *Recovery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	if tel == nil {
		tel = new(telemetry.Durable)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	j := &Journal{
		cfg: cfg,
		tel: tel,
		w: segmentWriter{
			dir: cfg.Dir, prefix: "wal", policy: cfg.Fsync, interval: cfg.FsyncInterval,
			segBytes: cfg.SegmentBytes, wrap: cfg.Wrap, tel: tel,
		},
		watermarks: make(map[uint64]uint64),
	}
	rec, err := j.recover()
	if err != nil {
		return nil, nil, journalStateError(cfg.Dir, err)
	}
	return j, rec, nil
}

// snapshotPath is the current snapshot; snapshotTmp its in-progress twin.
func (j *Journal) snapshotPath() string { return filepath.Join(j.cfg.Dir, "snapshot.bin") }
func (j *Journal) snapshotTmp() string  { return filepath.Join(j.cfg.Dir, "snapshot.tmp") }

// recover loads the snapshot, replays the WAL past it, truncates torn
// tails, and opens a fresh segment for new appends.
func (j *Journal) recover() (*Recovery, error) {
	rec := &Recovery{Watermarks: j.watermarks}

	// Snapshot: a single-record segment file, renamed into place atomically.
	// A missing file is a fresh start; a torn one (disk corruption — the
	// rename protocol never leaves a half-written snapshot.bin) is counted
	// and treated as absent, so recovery still yields the WAL's frames.
	if recs, _, tornBytes, err := scanSegment(j.snapshotPath()); err == nil {
		if len(recs) >= 1 && recs[0].typ == recSnap {
			state, wms, ok := decodeSnapshot(recs[0].body)
			if ok {
				rec.State = state
				for id, next := range wms {
					j.watermarks[id] = next
				}
			} else {
				rec.TornRecords++
			}
		}
		if tornBytes > 0 {
			rec.TornRecords++
			rec.TornBytes += tornBytes
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	os.Remove(j.snapshotTmp()) //nolint:errcheck // leftover from a crash mid-snapshot

	idxs, err := listSegments(j.cfg.Dir, "wal")
	if err != nil {
		return nil, err
	}
	var lastIdx uint64
	for _, idx := range idxs {
		if idx > lastIdx {
			lastIdx = idx
		}
		path := segPath(j.cfg.Dir, "wal", idx)
		recs, _, tornBytes, err := scanSegment(path)
		if err != nil {
			return nil, err
		}
		goodEnd := int64(len(segMagic))
		for _, r := range recs {
			if r.typ != recFrame || len(r.body) < 16 {
				continue
			}
			exporter := binary.BigEndian.Uint64(r.body[0:8])
			seq := binary.BigEndian.Uint64(r.body[8:16])
			goodEnd = r.end
			if seq < j.watermarks[exporter] {
				continue // already inside the snapshot
			}
			rec.Frames = append(rec.Frames, JournaledFrame{
				Exporter: exporter,
				Seq:      seq,
				Payload:  append([]byte(nil), r.body[16:]...),
			})
			j.watermarks[exporter] = seq + 1
		}
		if tornBytes > 0 {
			rec.TornRecords++
			rec.TornBytes += tornBytes
			if err := truncateSegment(path, goodEnd); err != nil {
				return nil, err
			}
		}
		// Old segments stay until the next snapshot GCs them; recovery never
		// deletes data it just proved it could read.
		j.segs = append(j.segs, idx)
	}

	var totalBytes uint64
	for _, f := range rec.Frames {
		totalBytes += uint64(len(f.Payload))
	}
	j.tel.ObserveRecovery(len(rec.Frames), totalBytes, rec.TornRecords, rec.TornBytes, 0)

	// Always append to a fresh segment: replayed segments are immutable
	// history that the next snapshot deletes wholesale.
	if err := j.w.open(lastIdx + 1); err != nil {
		return nil, err
	}
	return rec, nil
}

// Deliver journals one frame and then applies it, as one critical section:
// the WAL append (fsynced per policy) happens-before apply, and Snapshot
// can never observe totals that include a frame the WAL does not. It is a
// group commit of one frame; the server commits whole drained batches.
// Journal failures are counted and the journal disabled — the collector
// keeps serving from memory, degraded.
func (j *Journal) Deliver(exporter, seq uint64, payload []byte, apply func()) {
	one := [1]srvFrame{{seq: seq, payload: payload}}
	j.deliver(exporter, one[:], func(srvFrame) {
		if apply != nil {
			apply()
		}
	})
}

// deliver is a group commit: it appends every frame of one exporter's batch
// to the WAL, commits them together (one fsync under FsyncPerBatch), then
// applies each in order — all under the journal lock, so a Snapshot sees
// either none of the batch or all of it, together with its watermark. The
// server calls it with the aggregation handler as apply, before writing
// the batch's cumulative ack.
func (j *Journal) deliver(exporter uint64, frames []srvFrame, apply func(srvFrame)) {
	var head [16]byte
	binary.BigEndian.PutUint64(head[0:8], exporter)
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, f := range frames {
		binary.BigEndian.PutUint64(head[8:16], f.seq)
		j.w.append(recFrame, head[:], f.payload) //nolint:errcheck // sticky: commitBatch skips the fsync
		if next := f.seq + 1; next > j.watermarks[exporter] {
			j.watermarks[exporter] = next
		}
	}
	j.w.commitBatch() //nolint:errcheck // sticky error surfaces in telemetry
	for _, f := range frames {
		apply(f)
	}
}

// Snapshot atomically persists state (the application's serialized totals)
// together with the current watermarks, then truncates the WAL. stateFn is
// called under the journal lock, so the state it captures is exactly
// consistent with the watermarks stored beside it.
func (j *Journal) Snapshot(stateFn func() []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	state := stateFn()

	body := make([]byte, 0, 16*len(j.watermarks)+len(state)+8)
	body = binary.BigEndian.AppendUint32(body, uint32(len(j.watermarks)))
	for id, next := range j.watermarks {
		body = binary.BigEndian.AppendUint64(body, id)
		body = binary.BigEndian.AppendUint64(body, next)
	}
	body = binary.BigEndian.AppendUint32(body, uint32(len(state)))
	body = append(body, state...)

	if err := writeSnapshotFile(j.snapshotTmp(), body); err != nil {
		j.tel.ObserveError()
		return err
	}
	if err := os.Rename(j.snapshotTmp(), j.snapshotPath()); err != nil {
		j.tel.ObserveError()
		return err
	}
	syncDir(j.cfg.Dir)
	j.tel.ObserveSnapshot()

	// Everything journaled so far is covered by the snapshot: delete the
	// closed segments and restart the active one.
	cur := j.w.idx
	j.w.close()                               //nolint:errcheck // segment is deleted next either way
	os.Remove(segPath(j.cfg.Dir, "wal", cur)) //nolint:errcheck // best-effort GC
	for _, idx := range j.segs {
		os.Remove(segPath(j.cfg.Dir, "wal", idx)) //nolint:errcheck // best-effort GC
	}
	j.tel.ObserveTruncation(len(j.segs) + 1)
	j.segs = j.segs[:0]
	syncDir(j.cfg.Dir)
	j.w.err = nil // the snapshot superseded whatever a sticky error lost
	return j.w.open(cur + 1)
}

// Watermarks returns a copy of the per-exporter next-expected-sequence
// table (recovered plus journaled since), for seeding a Server.
func (j *Journal) Watermarks() map[uint64]uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[uint64]uint64, len(j.watermarks))
	for id, next := range j.watermarks {
		out[id] = next
	}
	return out
}

// Durability returns the journal's telemetry counters.
func (j *Journal) Durability() *telemetry.Durable { return j.tel }

// Close fsyncs and closes the WAL. Take a final Snapshot first if the
// application wants its totals durable without replay.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.close()
}

// writeSnapshotFile writes a single-record segment file and fsyncs it.
func writeSnapshotFile(path string, body []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := segmentWriter{tel: new(telemetry.Durable)}
	w.f = f
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := w.append(recSnap, body, nil); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeSnapshot parses a snapshot record body.
func decodeSnapshot(body []byte) (state []byte, watermarks map[uint64]uint64, ok bool) {
	if len(body) < 4 {
		return nil, nil, false
	}
	n := int(binary.BigEndian.Uint32(body[:4]))
	off := 4
	if n < 0 || len(body) < off+16*n+4 {
		return nil, nil, false
	}
	watermarks = make(map[uint64]uint64, n)
	for i := 0; i < n; i++ {
		id := binary.BigEndian.Uint64(body[off : off+8])
		next := binary.BigEndian.Uint64(body[off+8 : off+16])
		watermarks[id] = next
		off += 16
	}
	stateLen := int(binary.BigEndian.Uint32(body[off : off+4]))
	off += 4
	if stateLen < 0 || len(body) < off+stateLen {
		return nil, nil, false
	}
	return append([]byte(nil), body[off:off+stateLen]...), watermarks, true
}

// journalStateError wraps a recovery failure with the directory.
func journalStateError(dir string, err error) error {
	return fmt.Errorf("netflow/reliable: journal %s: %w", dir, err)
}
