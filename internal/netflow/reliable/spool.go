package reliable

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/telemetry"
)

// diskSpool is the durable backing of the exporter's in-memory ring: every
// frame Enqueue accepts is journaled (with its sequence number and report
// id) before the sender can see it, every report is closed with a commit
// record, and every cumulative ack from the collector is journaled too.
// After a crash, recovery replays the journal: committed frames above the
// last ack are the exact unacknowledged backlog, uncommitted tail frames
// were never visible to the sender and are discarded, and the sequence
// counter resumes where it left off — so a restarted exporter redelivers
// precisely what the collector has not durably acknowledged, under the same
// sequence numbers, and the collector's dedup keeps totals exact.
//
// All methods are called under the exporter's mutex; the spool itself holds
// no lock.
type diskSpool struct {
	w    segmentWriter
	tel  *telemetry.Durable
	segs []spoolSeg // closed segments, oldest first

	openMaxSeq uint64 // highest data seq in the open segment
	maxBytes   int64  // cap on closed-segment bytes; oldest deleted past it
}

// spoolSeg is one closed (no longer appended) segment.
type spoolSeg struct {
	idx    uint64
	maxSeq uint64 // highest data seq inside; 0 if none
	size   int64
}

// recoveredFrame is one committed, unacknowledged frame restored at startup.
type recoveredFrame struct {
	seq    uint64
	report uint64
	pkt    []byte
}

// spoolRecovery is the outcome of the startup journal scan.
type spoolRecovery struct {
	frames     []recoveredFrame // committed frames above lastAck, seq-ascending
	nextSeq    uint64           // highest committed data seq (sequence counter resume point)
	lastAck    uint64           // highest journaled cumulative ack
	lastReport uint64           // highest committed report id (producer resume point)
	torn       int              // records truncated from segment tails
	tornBytes  int64
}

// openDiskSpool opens (or creates) the spool journal in dir, recovers its
// state, truncates any torn tail, and resumes appending.
func openDiskSpool(dir string, policy FsyncPolicy, interval time.Duration, segBytes, maxBytes int64,
	wrap func(SpoolFile) SpoolFile, tel *telemetry.Durable) (*diskSpool, spoolRecovery, error) {

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, spoolRecovery{}, err
	}
	s := &diskSpool{
		w: segmentWriter{
			dir: dir, prefix: "spool", policy: policy, interval: interval,
			segBytes: segBytes, wrap: wrap, tel: tel,
		},
		tel:      tel,
		maxBytes: maxBytes,
	}
	rec, err := s.recover()
	if err != nil {
		return nil, spoolRecovery{}, spoolStateError(dir, err)
	}
	return s, rec, nil
}

// recover scans every segment oldest-first, rebuilding the committed frame
// backlog and truncating torn tails, then reopens the last segment for
// appending (or starts a fresh one).
func (s *diskSpool) recover() (spoolRecovery, error) {
	idxs, err := listSegments(s.w.dir, s.w.prefix)
	if err != nil {
		return spoolRecovery{}, err
	}
	var (
		rec       spoolRecovery
		committed []recoveredFrame
	)
	for _, idx := range idxs {
		path := segPath(s.w.dir, s.w.prefix, idx)
		recs, size, tornBytes, err := scanSegment(path)
		if err != nil {
			return spoolRecovery{}, err
		}
		var (
			pending []recoveredFrame
			goodEnd = int64(len(segMagic))
			segMax  uint64
		)
		for _, r := range recs {
			switch r.typ {
			case recData:
				if len(r.body) < 16 {
					tornBytes += int64(len(r.body)) // malformed: treat as torn from here
					rec.torn++
					goto truncate
				}
				pending = append(pending, recoveredFrame{
					seq:    beUint64(r.body[0:8]),
					report: beUint64(r.body[8:16]),
					pkt:    append([]byte(nil), r.body[16:]...),
				})
			case recCommit:
				for _, f := range pending {
					if f.seq > rec.nextSeq {
						rec.nextSeq = f.seq
					}
					if f.seq > segMax {
						segMax = f.seq
					}
					committed = append(committed, f)
				}
				if len(r.body) >= 8 {
					if rep := beUint64(r.body[0:8]); rep > rec.lastReport {
						rec.lastReport = rep
					}
				}
				pending = pending[:0]
				goodEnd = r.end
			case recAck:
				if len(r.body) >= 8 {
					if ack := beUint64(r.body[0:8]); ack > rec.lastAck {
						rec.lastAck = ack
					}
				}
				if len(pending) == 0 {
					goodEnd = r.end
				}
			}
		}
	truncate:
		// Data records past the last commit were never visible to the sender
		// (frames only become sendable after their report's commit record),
		// so cutting them — along with any CRC-torn bytes — loses nothing:
		// the producer re-enqueues the whole report under the same sequence
		// numbers.
		rec.torn += len(pending)
		if tornBytes > 0 || len(pending) > 0 {
			rec.tornBytes += size - goodEnd
			if err := truncateSegment(path, goodEnd); err != nil {
				return spoolRecovery{}, err
			}
			size = goodEnd
		}
		s.segs = append(s.segs, spoolSeg{idx: idx, maxSeq: segMax, size: size})
	}

	// The unacknowledged backlog: committed frames the collector has not
	// durably acknowledged, in sequence order (journal order is seq order).
	for _, f := range committed {
		if f.seq > rec.lastAck {
			rec.frames = append(rec.frames, f)
		}
	}
	if rec.lastAck > rec.nextSeq {
		rec.nextSeq = rec.lastAck
	}

	// Resume appending to the newest segment; start fresh if there is none.
	if n := len(s.segs); n > 0 {
		last := s.segs[n-1]
		s.segs = s.segs[:n-1]
		if err := s.w.reopen(last.idx, last.size); err != nil {
			return spoolRecovery{}, err
		}
		s.openMaxSeq = last.maxSeq
	} else if err := s.w.open(0); err != nil {
		return spoolRecovery{}, err
	}
	return rec, nil
}

// appendData journals one frame of a report being enqueued.
func (s *diskSpool) appendData(seq, report uint64, pkt []byte) {
	var head [16]byte
	bePutUint64(head[0:8], seq)
	bePutUint64(head[8:16], report)
	if s.w.append(recData, head[:], pkt) == nil && seq > s.openMaxSeq {
		s.openMaxSeq = seq
	}
}

// appendCommit closes a report's frame run: everything since the previous
// commit is now recoverable, and the batch is fsynced/rotated per policy.
func (s *diskSpool) appendCommit(report uint64) {
	var head [8]byte
	bePutUint64(head[:], report)
	s.w.append(recCommit, head[:], nil) //nolint:errcheck // sticky error checked via ok()
	s.endBatch()
}

// appendAck journals a cumulative ack and deletes every closed segment it
// fully covers. The ack record lands in the open segment first, and that
// segment is never deleted here — not even when the append rotated it out —
// so deleting older segments can never lose the recovered lastAck watermark.
func (s *diskSpool) appendAck(ack uint64) {
	var head [8]byte
	bePutUint64(head[:], ack)
	ackSeg := s.w.idx
	s.w.append(recAck, head[:], nil) //nolint:errcheck // sticky error checked via ok()
	s.endBatch()
	if s.w.err != nil {
		return
	}
	n := 0
	for n < len(s.segs) && s.segs[n].maxSeq <= ack && s.segs[n].idx != ackSeg {
		os.Remove(segPath(s.w.dir, s.w.prefix, s.segs[n].idx)) //nolint:errcheck // best-effort GC
		n++
	}
	if n > 0 {
		s.segs = s.segs[n:]
		syncDir(s.w.dir)
		s.tel.ObserveTruncation(n)
	}
}

// endBatch runs the fsync policy and handles rotation and the disk cap.
func (s *diskSpool) endBatch() {
	before := s.w.idx
	if s.w.commitBatch() != nil {
		return
	}
	if s.w.idx != before {
		// Rotated: the previous segment is now closed and ack-truncatable.
		s.segs = append(s.segs, spoolSeg{idx: before, maxSeq: s.openMaxSeq, size: s.w.closedSize})
		s.openMaxSeq = 0
		// Disk cap: shed the oldest closed segments, mirroring the ring's
		// DropOldest — under a long outage the journal keeps the freshest
		// frames, and recovery counts the hole as already-shed traffic.
		var total int64
		for _, seg := range s.segs {
			total += seg.size
		}
		dropped := 0
		for total > s.maxBytes && len(s.segs) > 1 {
			os.Remove(segPath(s.w.dir, s.w.prefix, s.segs[0].idx)) //nolint:errcheck // best-effort GC
			total -= s.segs[0].size
			s.segs = s.segs[1:]
			dropped++
		}
		if dropped > 0 {
			syncDir(s.w.dir)
			s.tel.ObserveTruncation(dropped)
		}
	}
}

// sync forces pending appends to disk (graceful shutdown).
func (s *diskSpool) sync() error { return s.w.syncNow() }

// ok reports whether the journal is still healthy (no sticky I/O error).
func (s *diskSpool) ok() bool { return s.w.err == nil }

// close fsyncs and closes the journal.
func (s *diskSpool) close() error { return s.w.close() }

func beUint64(b []byte) uint64       { return binary.BigEndian.Uint64(b) }
func bePutUint64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }

// spoolStateError wraps a recovery failure with the directory for operator
// context.
func spoolStateError(dir string, err error) error {
	return fmt.Errorf("netflow/reliable: spool %s: %w", dir, err)
}
