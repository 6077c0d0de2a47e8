package reliable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cfgerr"
	"repro/internal/telemetry"
)

// This file is the storage layer shared by the device's disk spool and the
// collector's write-ahead journal: append-only segment files of CRC-framed
// records, with a configurable fsync policy and torn-tail detection.
//
// Segment format: an 8-byte magic, then records. Each record is
//
//	u32 length   (of type byte + body; not the length field, not the CRC)
//	byte type
//	body
//	u32 CRC-32C  (over the length field, type byte and body)
//
// A process killed mid-write leaves a short or CRC-corrupt record at the
// tail; recovery detects it, truncates the segment back to the last record
// boundary that ended a committed run, and counts what it discarded. The
// CRC covers the length field too, so a corrupted length cannot send the
// scanner off into garbage silently.

const (
	segMagic = "HHJRNL1\n"

	// recOverhead is the framing around a record body: length, type, CRC.
	recOverhead = 4 + 1 + 4

	// maxRecordBody bounds a decoded record body; anything larger is
	// corruption (spool payloads are bounded by DefaultMaxFrameBytes).
	maxRecordBody = DefaultMaxFrameBytes + 64
)

// Journal record types. Distinct from the wire frame types on purpose:
// these are disk records, and mixing the alphabets would make a journal fed
// to the wire decoder (or vice versa) fail loudly instead of confusingly.
const (
	recData   = 'd' // spool: u64 seq, u64 report, payload
	recCommit = 'c' // spool: u64 report — every frame of the report is journaled
	recAck    = 'a' // spool: u64 cumulative ack
	recFrame  = 'f' // collector WAL: u64 exporter, u64 seq, payload
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SpoolFile is what the journal needs from an open segment file. *os.File
// satisfies it; tests wrap it with a fault-injecting writer to make disk
// failures and torn writes deterministic.
type SpoolFile interface {
	io.Writer
	Sync() error
	Close() error
}

// FsyncPolicy says when journal appends are forced to stable storage. The
// choice trades throughput for the size of the window a SIGKILL (or power
// loss) can erase; see the README's durability model for the exact
// guarantees each policy keeps.
type FsyncPolicy int

const (
	// FsyncPerBatch (the default) fsyncs once per append batch — one fsync
	// per Enqueue on the device, one per group commit on the collector (the
	// frames a connection's worker drained in one go, acked together after
	// the fsync). A crash can lose at most the current batch, which was
	// not yet acked.
	FsyncPerBatch FsyncPolicy = iota
	// FsyncPerFrame fsyncs after every record. Slowest, and the only policy
	// under which a frame can never be on the wire without being on disk —
	// required for exactness with producers that cannot regenerate reports
	// deterministically.
	FsyncPerFrame
	// FsyncTimer fsyncs when an append batch completes and at least
	// FsyncInterval has passed since the last fsync. Fastest; a crash can
	// lose up to an interval's worth of appends.
	FsyncTimer
	// FsyncNone never fsyncs (the OS flushes the page cache on its own
	// schedule). A process kill loses nothing — the page cache survives —
	// but a machine crash can erase arbitrarily much. Exists mainly as the
	// measurement baseline for the policy cost comparison.
	FsyncNone
)

// String names the policy the way the -export-fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncPerBatch:
		return "batch"
	case FsyncPerFrame:
		return "frame"
	case FsyncTimer:
		return "timer"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// FsyncPolicyByName parses a policy name: frame, batch, timer or none.
func FsyncPolicyByName(name string) (FsyncPolicy, error) {
	switch name {
	case "batch", "":
		return FsyncPerBatch, nil
	case "frame":
		return FsyncPerFrame, nil
	case "timer":
		return FsyncTimer, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, cfgerr.New("netflow/reliable", "Fsync", "unknown policy %q (want frame, batch, timer or none)", name)
	}
}

// segmentWriter appends CRC-framed records to numbered segment files in one
// directory, rotating at a size threshold and fsyncing per policy. It is
// not safe for concurrent use; its owner serializes access (the exporter
// under its spool mutex, the journal under its own).
type segmentWriter struct {
	dir      string
	prefix   string
	policy   FsyncPolicy
	interval time.Duration
	segBytes int64
	wrap     func(SpoolFile) SpoolFile
	tel      *telemetry.Durable

	f          SpoolFile
	idx        uint64 // index of the open segment
	size       int64  // bytes written to the open segment
	closedSize int64  // final size of the most recently rotated-out segment
	dirty      bool   // appended since the last fsync
	lastSync   time.Time
	scratch    []byte // grow-only record assembly buffer
	err        error  // sticky: first I/O error; the journal is then disabled
}

// segPath returns the path of segment idx.
func segPath(dir, prefix string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%08d.seg", prefix, idx))
}

// listSegments returns the sorted indices of prefix's segments in dir.
func listSegments(dir, prefix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), prefix+"-%d.seg", &idx); n == 1 {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// syncDir fsyncs the directory itself, making created/removed segment files
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // advisory
		d.Close()
	}
}

// open opens segment idx for appending (creating it with the magic header)
// and makes the creation durable.
func (w *segmentWriter) open(idx uint64) error {
	f, err := os.OpenFile(segPath(w.dir, w.prefix, idx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	syncDir(w.dir)
	var sf SpoolFile = f
	if w.wrap != nil {
		sf = w.wrap(f)
	}
	w.f, w.idx, w.size, w.dirty = sf, idx, int64(len(segMagic)), false
	w.lastSync = time.Now()
	return nil
}

// reopen resumes appending to an existing segment of known size.
func (w *segmentWriter) reopen(idx uint64, size int64) error {
	f, err := os.OpenFile(segPath(w.dir, w.prefix, idx), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	var sf SpoolFile = f
	if w.wrap != nil {
		sf = w.wrap(f)
	}
	w.f, w.idx, w.size, w.dirty = sf, idx, size, false
	w.lastSync = time.Now()
	return nil
}

// fail records the journal's first I/O error and disables it: the process
// keeps running on memory alone, degraded on /healthz.
func (w *segmentWriter) fail(err error) error {
	if w.err == nil {
		w.err = err
		w.tel.ObserveError()
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
	}
	return w.err
}

// append writes one record with up to two body parts (a fixed-size header
// part and a payload). It assembles the record in the grow-only scratch
// buffer so steady state is one Write call and zero allocations.
func (w *segmentWriter) append(typ byte, head, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	bodyLen := 1 + len(head) + len(payload)
	total := 4 + bodyLen + 4
	if cap(w.scratch) < total {
		w.scratch = make([]byte, 0, total+total/2)
	}
	b := w.scratch[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(bodyLen))
	b = append(b, typ)
	b = append(b, head...)
	b = append(b, payload...)
	crc := crc32.Checksum(b, crcTable)
	b = binary.BigEndian.AppendUint32(b, crc)
	w.scratch = b[:0]
	if _, err := w.f.Write(b); err != nil {
		return w.fail(err)
	}
	w.size += int64(len(b))
	w.dirty = true
	w.tel.ObserveAppend(len(b))
	if w.policy == FsyncPerFrame {
		return w.syncNow()
	}
	return nil
}

// commitBatch ends an append batch: it fsyncs per policy and rotates the
// segment if it outgrew the threshold. Rotation only happens here — at a
// record-run boundary — so a multi-record run (one report's frames plus its
// commit record) never spans two segments.
func (w *segmentWriter) commitBatch() error {
	if w.err != nil {
		return w.err
	}
	switch w.policy {
	case FsyncPerBatch:
		if err := w.syncNow(); err != nil {
			return err
		}
	case FsyncTimer:
		if w.dirty && time.Since(w.lastSync) >= w.interval {
			if err := w.syncNow(); err != nil {
				return err
			}
		}
	}
	if w.size >= w.segBytes {
		return w.rotate()
	}
	return nil
}

// syncNow forces appended records to stable storage.
func (w *segmentWriter) syncNow() error {
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.dirty = false
	w.lastSync = time.Now()
	w.tel.ObserveFsync()
	return nil
}

// rotate closes the open segment (fsynced) and opens the next one.
func (w *segmentWriter) rotate() error {
	if err := w.syncNow(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return w.fail(err)
	}
	w.f = nil
	w.closedSize = w.size
	if err := w.open(w.idx + 1); err != nil {
		return w.fail(err)
	}
	w.tel.ObserveRotation()
	return nil
}

// close fsyncs and closes the open segment.
func (w *segmentWriter) close() error {
	if w.f == nil {
		return w.err
	}
	err := w.syncNow()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// scannedRecord is one record decoded from a segment. body aliases the
// segment's read buffer.
type scannedRecord struct {
	typ  byte
	body []byte
	end  int64 // file offset just past this record
}

// scanSegment reads every valid record of one segment file. It returns the
// records, the total file size, and how much tail was torn: a short header,
// short body or CRC mismatch ends the scan, and everything from that point
// on counts as torn. A missing or wrong magic makes the whole file torn.
func scanSegment(path string) (recs []scannedRecord, size int64, tornBytes int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	size = int64(len(data))
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, size, size, nil
	}
	off := int64(len(segMagic))
	for off < size {
		rest := data[off:]
		if len(rest) < 4 {
			break
		}
		bodyLen := int(binary.BigEndian.Uint32(rest[:4]))
		if bodyLen < 1 || bodyLen > maxRecordBody || len(rest) < 4+bodyLen+4 {
			break
		}
		want := binary.BigEndian.Uint32(rest[4+bodyLen:])
		if crc32.Checksum(rest[:4+bodyLen], crcTable) != want {
			break
		}
		recs = append(recs, scannedRecord{
			typ:  rest[4],
			body: rest[5 : 4+bodyLen],
			end:  off + int64(4+bodyLen+4),
		})
		off += int64(4 + bodyLen + 4)
	}
	return recs, size, size - off, nil
}

// truncateSegment cuts a segment back to good, discarding a torn tail, and
// fsyncs the result so recovery is itself crash-safe.
func truncateSegment(path string, good int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(good); err != nil {
		return err
	}
	return f.Sync()
}
