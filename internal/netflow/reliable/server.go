package reliable

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ServerConfig configures the collector side of the reliable transport.
type ServerConfig struct {
	// MaxFrameBytes bounds accepted frame bodies (default
	// DefaultMaxFrameBytes); a corrupted length prefix past it drops the
	// connection instead of allocating.
	MaxFrameBytes int
	// AckTimeout bounds each ack/pause/resume write (default 5s). An
	// exporter that stops reading is disconnected rather than allowed to
	// wedge the connection's goroutine — the slow-client backpressure bound.
	AckTimeout time.Duration
	// HandshakeTimeout bounds the wait for the hello frame (default 10s). A
	// client that connects and never speaks used to pin a goroutine and a
	// connection slot forever; now it is dropped and counted.
	HandshakeTimeout time.Duration
	// IdleTimeout evicts a connection that sends nothing — no data, no
	// heartbeat — for this long (default 90s; negative disables). Exporters
	// heartbeat well inside it, so only dead or partitioned peers trip it.
	IdleTimeout time.Duration
	// MaxExporters caps concurrently connected exporters (0 = unlimited).
	// Connections past the cap are closed immediately and counted as
	// rejected — admission control so a misconfigured fleet cannot pile
	// unbounded goroutines onto one collector.
	MaxExporters int
	// InflightBudgetBytes bounds each connection's received-but-unprocessed
	// payload bytes (default 1 MiB). Past it the server sends a pause frame;
	// once the backlog drains to half the budget it sends resume. The
	// exporter keeps spooling while paused, so overload moves to the
	// device's ring (which has an eviction policy) instead of growing
	// unbounded here.
	InflightBudgetBytes int
	// Journal, when set, makes delivery crash-safe. The worker delivers in
	// group commits: each batch of frames drained from a connection's queue
	// is appended to the write-ahead log and committed together (one fsync
	// per batch under FsyncPerBatch) in the same critical section that runs
	// the handler, before the batch's one cumulative ack is written — so
	// every acked frame is recoverable. The server also seeds its
	// per-exporter sequence state from the journal's recovered watermarks,
	// so a restarted collector neither regresses its acks nor re-counts
	// replayed frames.
	Journal *Journal
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxFrameBytes == 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 90 * time.Second
	}
	if c.InflightBudgetBytes == 0 {
		c.InflightBudgetBytes = 1 << 20
	}
	return c
}

// exporterState is the per-exporter sequence accounting, keyed by the
// exporter ID from the hello frame so it survives reconnects. Its mutex
// serializes delivery per exporter: a batch's classification, journal
// commit and handler calls are one critical section, so duplicates are
// exact and the handler sees each exporter's frames in order.
type exporterState struct {
	mu         sync.Mutex
	next       uint64 // next expected sequence; next-1 is the cumulative ack
	delivered  uint64
	duplicates uint64
	gaps       uint64
}

// srvFrame is one data frame queued between a connection's reader and its
// delivery worker; the payload is an owned copy.
type srvFrame struct {
	seq     uint64
	payload []byte
}

// srvConn is one accepted connection's shared state. The reader goroutine
// enqueues frames and sends pause when the queued backlog breaches the
// inflight budget; the worker dequeues, delivers and acks, and sends
// resume once the backlog halves. writeMu serializes all writes (acks from
// the worker, pause/resume from either side) and guards paused.
type srvConn struct {
	conn        net.Conn
	queue       chan srvFrame
	queuedBytes atomic.Int64

	writeMu sync.Mutex
	paused  bool
	dead    bool // a control write failed: stop writing, let the reader die
}

// Server is the collection-station side: it accepts reliable-exporter
// connections, dedups frames by per-exporter sequence, hands each frame's
// payload to the handler exactly once per server lifetime, and
// acknowledges cumulatively after the handler returns — so a report is
// only acked once it has actually been aggregated, and a crash between
// receive and ack costs nothing but a redelivery.
//
// Liveness and flow control are explicit. Every connection must produce a
// hello within the handshake timeout and then at least a heartbeat within
// the idle timeout, or it is evicted — a silent peer cannot pin a goroutine
// or a connection slot. Each connection's received-but-undelivered bytes
// are bounded by the inflight budget: past it the server sends a pause
// frame (the exporter stops replaying but keeps spooling) and resumes once
// the worker has drained the backlog to half the budget. An admission cap
// bounds the total number of connected exporters.
//
// Across a server crash and restart the transport is at-least-once: a
// frame handled just before the crash whose ack never reached the exporter
// is redelivered to the next server. The handler receives the frame's
// sequence number so an aggregator that keeps state across server
// instances can stay idempotent (skip seq at or below the highest already
// folded in) and recover exactly-once end to end.
type Server struct {
	cfg     ServerConfig
	handler func(exporter, seq uint64, payload []byte)
	ln      net.Listener

	frames            atomic.Uint64
	dataBytes         atomic.Uint64
	delivered         atomic.Uint64
	duplicates        atomic.Uint64
	gaps              atomic.Uint64
	badFrames         atomic.Uint64
	accepted          atomic.Uint64
	heartbeats        atomic.Uint64
	handshakeTimeouts atomic.Uint64
	evicted           atomic.Uint64
	rejected          atomic.Uint64
	frameSizeDrops    atomic.Uint64
	pausesSent        atomic.Uint64
	resumesSent       atomic.Uint64
	pausedConns       atomic.Int64

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	exporters map[uint64]*exporterState
	closed    bool
	aborted   atomic.Bool // Close (not Shutdown): workers discard their queues
	deadline  time.Time   // non-zero while draining: read deadline for conns

	wg sync.WaitGroup
}

// Listen binds a TCP listener on addr and serves reliable exporters in the
// background. The handler receives each deduplicated frame payload (one
// encoded NetFlow v5 packet) exactly once per exporter, in order, along
// with its sequence number; it may be nil when only the statistics matter.
func Listen(addr string, cfg ServerConfig, handler func(exporter, seq uint64, payload []byte)) (*Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	s := NewServer(ln, cfg, handler)
	return s, ln.Addr(), nil
}

// NewServer serves reliable exporters on an existing listener.
func NewServer(ln net.Listener, cfg ServerConfig, handler func(exporter, seq uint64, payload []byte)) *Server {
	s := &Server{
		cfg:       cfg.withDefaults(),
		handler:   handler,
		ln:        ln,
		conns:     make(map[net.Conn]struct{}),
		exporters: make(map[uint64]*exporterState),
	}
	if j := s.cfg.Journal; j != nil {
		// Resume sequence state where durable state ends: frames below the
		// watermark are journaled (snapshot or WAL), so redeliveries of them
		// classify as duplicates instead of being counted twice.
		for id, next := range j.Watermarks() {
			s.exporters[id] = &exporterState{next: next}
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.cfg.MaxExporters > 0 && len(s.conns) >= s.cfg.MaxExporters {
			// Admission control: over the cap the connection is refused
			// outright. The exporter keeps spooling and retrying with
			// backoff, which is exactly the behavior it has during any
			// collector outage.
			s.mu.Unlock()
			conn.Close()
			s.rejected.Add(1)
			continue
		}
		s.conns[conn] = struct{}{}
		if !s.deadline.IsZero() {
			conn.SetReadDeadline(s.deadline)
		}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// draining reports whether Shutdown has set a global drain deadline (which
// per-frame idle re-arming must not override).
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.deadline.IsZero()
}

// armReadDeadline sets conn's read deadline d from now, unless a drain
// deadline is active (Shutdown's takes precedence — checked under the same
// lock Shutdown holds while setting it, so the two can never interleave
// into an idle deadline outliving the drain) or d is negative (disabled).
func (s *Server) armReadDeadline(conn net.Conn, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.deadline.IsZero() {
		return
	}
	if d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	} else {
		conn.SetReadDeadline(time.Time{})
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()

	// Handshake: the hello must arrive within its timeout — a connection
	// that never speaks is dropped instead of pinning this goroutine.
	s.armReadDeadline(conn, s.cfg.HandshakeTimeout)
	var buf []byte
	hello, err := readFrame(conn, &buf, s.cfg.MaxFrameBytes)
	if err != nil || hello.typ != frameHello {
		// A peer that times out or disconnects without sending anything is
		// a liveness event, not a corrupt one — only undecodable bytes or a
		// decodable-but-wrong first frame count as bad.
		if err == nil || !isCleanClose(err) {
			s.badFrames.Add(1)
		}
		s.classifyReadError(err, true)
		return
	}
	st := s.exporterState(hello.exporter)
	// The hello carries the highest cumulative ack the exporter has seen.
	// A freshly started collector (or one whose state predates a long
	// disconnect) fast-forwards past those sequences: they were delivered
	// and acknowledged — by this server or a predecessor that crashed — so
	// skipping them is not a gap. Genuinely shed frames are never acked and
	// so still surface as sequence jumps below.
	st.mu.Lock()
	if hello.acked+1 > st.next {
		st.next = hello.acked + 1
	}
	st.mu.Unlock()

	// Reader/worker split: the reader keeps the socket drained (so pause
	// frames and idle deadlines stay meaningful) while the worker delivers,
	// journals and acks. The queue bounds frames; the byte budget bounds
	// payload and triggers pause/resume.
	c := &srvConn{conn: conn, queue: make(chan srvFrame, 256)}
	var workerDone sync.WaitGroup
	workerDone.Add(1)
	go func() {
		defer workerDone.Done()
		s.deliverLoop(c, hello.exporter, st)
	}()
	defer func() {
		close(c.queue)
		workerDone.Wait()
		c.writeMu.Lock()
		if c.paused {
			c.paused = false
			s.pausedConns.Add(-1)
		}
		c.writeMu.Unlock()
	}()

	for {
		s.armReadDeadline(conn, s.cfg.IdleTimeout)
		f, err := readFrame(conn, &buf, s.cfg.MaxFrameBytes)
		if err != nil {
			// Either way the connection is done — the exporter reconnects
			// and redelivers, and dedup absorbs the overlap — but only
			// corruption counts as a bad frame: a clean close between
			// frames (EOF), a severed socket, or a drain deadline expiring
			// is normal lifecycle. An idle timeout outside a drain is an
			// eviction: the peer went silent past the liveness bound.
			if !isCleanClose(err) {
				s.badFrames.Add(1)
			}
			s.classifyReadError(err, false)
			return
		}
		switch f.typ {
		case frameHeartbeat:
			// Liveness only: re-arms the idle deadline on the next loop.
			s.heartbeats.Add(1)
			continue
		case frameData:
		default:
			s.badFrames.Add(1)
			return
		}
		// The payload aliases the read buffer; the worker needs its own copy.
		qf := srvFrame{seq: f.seq, payload: append([]byte(nil), f.payload...)}
		queued := c.queuedBytes.Add(int64(len(qf.payload)))
		if int(queued) > s.cfg.InflightBudgetBytes {
			s.pause(c)
		}
		c.queue <- qf
		// Counted once queued: a frame in Frames is visible to the worker's
		// next batch drain.
		s.frames.Add(1)
		s.dataBytes.Add(uint64(len(qf.payload)))
	}
}

// classifyReadError files a connection-ending read error under the right
// liveness counter: handshake timeouts, idle evictions, and corrupted
// length prefixes each get their own so an operator can tell a hostile
// network from a dead fleet.
func (s *Server) classifyReadError(err error, handshake bool) {
	if err == nil {
		return
	}
	var fse *frameSizeError
	if errors.As(err, &fse) {
		s.frameSizeDrops.Add(1)
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() && !s.draining() {
		if handshake {
			s.handshakeTimeouts.Add(1)
		} else {
			s.evicted.Add(1)
		}
	}
}

// deliverLoop is a connection's worker. It delivers in group commits: it
// takes the first queued frame plus every frame already queued behind it,
// classifies the batch against the exporter's sequence state, journals the
// fresh frames with one WAL commit (so FsyncPerBatch costs one fsync per
// batch, not per frame), hands them to the handler in order, and only then
// writes one cumulative ack for the whole batch. It lifts the pause once the
// queued backlog halves. On a hard Close it discards the rest of its queue —
// those frames were never acked, so the exporter redelivers them and dedup
// keeps the accounting exact.
func (s *Server) deliverLoop(c *srvConn, exporter uint64, st *exporterState) {
	var ackBuf [lenBytes + 1 + 8 + crcBytes]byte
	batch := make([]srvFrame, 0, cap(c.queue))
	apply := func(f srvFrame) {
		if s.handler != nil {
			s.handler(exporter, f.seq, f.payload)
		}
	}
	for f := range c.queue {
		batch = append(batch[:0], f)
		// This worker is the queue's only receiver, so a non-empty queue
		// (closed or not) never blocks the receive.
		for len(batch) < cap(batch) && len(c.queue) > 0 {
			batch = append(batch, <-c.queue)
		}
		var n int64
		for _, f := range batch {
			n += int64(len(f.payload))
		}
		queued := c.queuedBytes.Add(-n)
		if s.aborted.Load() {
			continue
		}

		st.mu.Lock()
		expected := st.next
		if expected == 0 {
			expected = 1 // sequences start at 1
		}
		fresh := batch[:0] // compacted in place: never overtakes the range
		for _, f := range batch {
			if f.seq < expected {
				st.duplicates++
				s.duplicates.Add(1)
				continue
			}
			if f.seq > expected {
				// Sequence jumped forward: the exporter's spool overflowed
				// and shed frames we will never see. Account the hole and
				// move on — the surviving data is still exact.
				st.gaps += f.seq - expected
				s.gaps.Add(f.seq - expected)
			}
			fresh = append(fresh, f)
			expected = f.seq + 1
		}
		if j := s.cfg.Journal; j != nil {
			// One WAL commit for the batch happens-before the handler's
			// aggregation, and both precede the ack below:
			// acked ⇒ journaled ⇒ recoverable.
			j.deliver(exporter, fresh, apply)
		} else {
			for _, f := range fresh {
				apply(f)
			}
		}
		st.next = expected
		st.delivered += uint64(len(fresh))
		s.delivered.Add(uint64(len(fresh)))
		// Cumulative, so it also re-acks a duplicate-only batch and the
		// exporter releases its spool.
		ack := expected - 1
		st.mu.Unlock()
		clear(batch) // drop payload references until the slots are reused

		c.writeMu.Lock()
		if !c.dead {
			c.conn.SetWriteDeadline(time.Now().Add(s.cfg.AckTimeout))
			if _, err := c.conn.Write(appendAck(ackBuf[:0], ack)); err != nil {
				c.dead = true
				c.conn.Close() // unblocks the reader; frames past here redeliver
			}
		}
		if c.paused && int(queued) <= s.cfg.InflightBudgetBytes/2 {
			s.resumeLocked(c)
		}
		c.writeMu.Unlock()
	}
}

// pause sends a pause frame if the connection is not already paused.
func (s *Server) pause(c *srvConn) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.paused || c.dead {
		return
	}
	var buf [lenBytes + 1 + crcBytes]byte
	c.conn.SetWriteDeadline(time.Now().Add(s.cfg.AckTimeout))
	if _, err := c.conn.Write(appendControl(buf[:0], framePause)); err != nil {
		c.dead = true
		c.conn.Close()
		return
	}
	c.paused = true
	s.pausesSent.Add(1)
	s.pausedConns.Add(1)
}

// resumeLocked sends a resume frame; the caller holds c.writeMu and has
// checked c.paused.
func (s *Server) resumeLocked(c *srvConn) {
	if c.dead {
		return
	}
	var buf [lenBytes + 1 + crcBytes]byte
	c.conn.SetWriteDeadline(time.Now().Add(s.cfg.AckTimeout))
	if _, err := c.conn.Write(appendControl(buf[:0], frameResume)); err != nil {
		c.dead = true
		c.conn.Close()
		return
	}
	c.paused = false
	s.resumesSent.Add(1)
	s.pausedConns.Add(-1)
}

// isCleanClose reports whether a read error is normal connection lifecycle
// (EOF between frames, a closed socket, a drain deadline) rather than a
// corrupted or truncated frame.
func isCleanClose(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) exporterState(id uint64) *exporterState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.exporters[id]
	if st == nil {
		st = &exporterState{}
		s.exporters[id] = st
	}
	return st
}

// Close severs every connection immediately and stops accepting. Frames in
// flight are abandoned (the transport redelivers them on the exporter's
// next connection, so nothing is lost) — the chaos tests use it as the
// collector crash.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.aborted.Store(true)
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown stops accepting, then lets each connection keep delivering
// frames already in flight for up to timeout before severing it — the
// graceful drain for SIGTERM: reports the kernel has already accepted are
// aggregated and acked rather than discarded. Queued frames each worker
// has already received are delivered even after the read deadline severs
// their connection.
func (s *Server) Shutdown(timeout time.Duration) error {
	err := s.ln.Close()
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	s.closed = true
	s.deadline = deadline
	for c := range s.conns {
		c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ExporterStats is one exporter's sequence accounting.
type ExporterStats struct {
	// NextSeq is the next expected sequence number (NextSeq-1 is the
	// cumulative ack).
	NextSeq uint64 `json:"next_seq"`
	// Delivered counts frames handed to the handler exactly once.
	Delivered uint64 `json:"delivered"`
	// Duplicates counts redelivered frames absorbed by dedup.
	Duplicates uint64 `json:"duplicates"`
	// Gaps counts sequence numbers skipped forever (exporter spool
	// overflow).
	Gaps uint64 `json:"gaps"`
}

// Stats is a point-in-time copy of the server's counters.
type Stats struct {
	// Frames and Bytes count data frames received, duplicates included.
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
	// Delivered, Duplicates and Gaps aggregate the per-exporter accounting.
	Delivered  uint64 `json:"delivered"`
	Duplicates uint64 `json:"duplicates"`
	Gaps       uint64 `json:"gaps"`
	// BadFrames counts connections dropped on undecodable or out-of-
	// protocol frames.
	BadFrames uint64 `json:"bad_frames"`
	// FrameSizeDrops counts connections dropped on an out-of-range length
	// prefix (zero-length or oversized) — the signature of a corrupted or
	// hostile length prefix, broken out of BadFrames so it is visible.
	FrameSizeDrops uint64 `json:"frame_size_drops"`
	// Heartbeats counts liveness frames received.
	Heartbeats uint64 `json:"heartbeats"`
	// HandshakeTimeouts counts connections dropped for never sending hello;
	// Evicted counts established connections dropped for exceeding the idle
	// timeout; Rejected counts connections refused by the MaxExporters
	// admission cap.
	HandshakeTimeouts uint64 `json:"handshake_timeouts"`
	Evicted           uint64 `json:"evicted"`
	Rejected          uint64 `json:"rejected"`
	// PausesSent and ResumesSent count backpressure frames emitted;
	// PausedConnections is the number of connections currently paused.
	PausesSent        uint64 `json:"pauses_sent"`
	ResumesSent       uint64 `json:"resumes_sent"`
	PausedConnections int    `json:"paused_connections"`
	// Connections counts accepted connections; ActiveConnections the ones
	// currently open.
	Connections       uint64 `json:"connections"`
	ActiveConnections int    `json:"active_connections"`
	// PerExporter is the accounting keyed by exporter ID.
	PerExporter map[uint64]ExporterStats `json:"per_exporter"`
}

// Stats returns a snapshot of the collection statistics.
func (s *Server) Stats() Stats {
	st := Stats{
		Frames:            s.frames.Load(),
		Bytes:             s.dataBytes.Load(),
		Delivered:         s.delivered.Load(),
		Duplicates:        s.duplicates.Load(),
		Gaps:              s.gaps.Load(),
		BadFrames:         s.badFrames.Load(),
		FrameSizeDrops:    s.frameSizeDrops.Load(),
		Heartbeats:        s.heartbeats.Load(),
		HandshakeTimeouts: s.handshakeTimeouts.Load(),
		Evicted:           s.evicted.Load(),
		Rejected:          s.rejected.Load(),
		PausesSent:        s.pausesSent.Load(),
		ResumesSent:       s.resumesSent.Load(),
		PausedConnections: int(s.pausedConns.Load()),
		Connections:       s.accepted.Load(),
		PerExporter:       make(map[uint64]ExporterStats),
	}
	s.mu.Lock()
	st.ActiveConnections = len(s.conns)
	states := make(map[uint64]*exporterState, len(s.exporters))
	for id, es := range s.exporters {
		states[id] = es
	}
	s.mu.Unlock()
	for id, es := range states {
		es.mu.Lock()
		st.PerExporter[id] = ExporterStats{
			NextSeq:    es.next,
			Delivered:  es.delivered,
			Duplicates: es.duplicates,
			Gaps:       es.gaps,
		}
		es.mu.Unlock()
	}
	return st
}
