// Package trace provides the traffic substrate for the reproduction: the
// trace model (packets grouped into measurement intervals on a link of known
// capacity), a replay engine, a compact binary on-disk format, and a
// synthetic trace generator calibrated to the paper's traces.
//
// The paper evaluates on three real traces (Table 3): MAG+, a 4515 s OC-48
// CAIDA trace (MAG is its first 90 s), and IND/COS, 90 s NLANR traces from an
// OC-12 and an OC-3 access link. Those traces are not redistributable, so
// the generator in this package synthesizes traffic matched to their
// published statistics: active flow counts under each flow definition,
// megabytes per 5-second interval, link utilization (13-27 %), the heavy
// tail of Figure 6 (the top 10 % of flows carry 85-94 % of the bytes), and
// the prevalence of long-lived large flows that the paper's
// entry-preservation optimization exploits.
package trace

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cfgerr"
	"repro/internal/flow"
)

// Meta describes a trace: the link it was captured on and its measurement
// interval structure. The measurement interval (5 seconds in all the paper's
// experiments) partitions the trace; all algorithm state except preserved
// entries resets at interval boundaries.
type Meta struct {
	// Name identifies the trace ("MAG+", "MAG", "IND", "COS", or custom).
	Name string
	// LinkBytesPerSec is the capacity of the measured link in bytes/second.
	LinkBytesPerSec float64
	// Interval is the measurement interval length.
	Interval time.Duration
	// Intervals is the number of measurement intervals in the trace.
	Intervals int
	// HasAS reports whether packets carry AS annotations (the paper could
	// not do AS-pair analysis on its anonymized IND/COS traces).
	HasAS bool
}

// Capacity returns C, the number of bytes the link can carry in one
// measurement interval — the quantity the paper's thresholds are expressed
// against (e.g. "flows above 0.1% of the link capacity").
func (m Meta) Capacity() float64 {
	return m.LinkBytesPerSec * m.Interval.Seconds()
}

// Duration returns the total trace duration.
func (m Meta) Duration() time.Duration {
	return time.Duration(m.Intervals) * m.Interval
}

// Validate checks the metadata for obvious inconsistencies.
func (m Meta) Validate() error {
	// The comparison is written so that NaN (which fails every comparison)
	// is rejected too — a corrupt trace header must not produce a source
	// whose capacity arithmetic silently poisons every threshold.
	if !(m.LinkBytesPerSec > 0) || math.IsInf(m.LinkBytesPerSec, 1) {
		return cfgerr.New("trace", "LinkBytesPerSec", "must be positive and finite, got %g", m.LinkBytesPerSec)
	}
	if m.Interval <= 0 {
		return cfgerr.New("trace", "Interval", "must be positive, got %v", m.Interval)
	}
	if m.Intervals <= 0 {
		return cfgerr.New("trace", "Intervals", "must be positive, got %d", m.Intervals)
	}
	return nil
}

// Source is a stream of packets in non-decreasing time order.
type Source interface {
	// Meta returns the trace metadata.
	Meta() Meta
	// Next returns the next packet; it returns io.EOF after the last one.
	Next() (flow.Packet, error)
}

// Consumer receives a replayed trace: every packet in order, plus an
// EndInterval callback at each measurement-interval boundary. EndInterval is
// called exactly Meta().Intervals times, the last time after the final
// packet.
type Consumer interface {
	Packet(p *flow.Packet)
	EndInterval(interval int)
}

// DefaultBatchSize is the packet batch size Replay uses unless overridden
// with WithBatchSize. Large enough to amortize per-batch overhead, small
// enough that a batch of packets plus its extracted keys stays L1-resident.
const DefaultBatchSize = 256

// BatchConsumer is a Consumer with a batched packet path. PacketBatch must
// be equivalent to calling Packet on each packet in order; the slice is only
// valid for the duration of the call.
type BatchConsumer interface {
	Consumer
	PacketBatch(pkts []flow.Packet)
}

// ReplayOption customizes Replay.
type ReplayOption func(*replayOptions)

type replayOptions struct {
	batchSize int
	stop      func() bool
}

// WithBatchSize sets the delivery batch size. n <= 0 selects
// DefaultBatchSize; n == 1 delivers packets one at a time, the behavior of
// the original unbatched replay loop.
func WithBatchSize(n int) ReplayOption {
	return func(o *replayOptions) {
		if n <= 0 {
			n = DefaultBatchSize
		}
		o.batchSize = n
	}
}

// ErrStopped is returned by Replay when a WithStop hook ended the replay
// early — an orderly interruption (a drain signal), not a trace failure.
var ErrStopped = fmt.Errorf("trace: replay stopped")

// WithStop registers a hook polled at batch boundaries; when it returns
// true, Replay flushes the packets already buffered and returns ErrStopped
// without closing the remaining intervals. The device's signal handler uses
// it to stop consuming mid-trace and drain what was already measured.
func WithStop(fn func() bool) ReplayOption {
	return func(o *replayOptions) { o.stop = fn }
}

// Replay streams src into c, detecting measurement-interval boundaries from
// packet timestamps; packets past the trace's nominal end are attributed to
// the last interval. It returns the number of packets replayed.
//
// Packets are delivered in batches of up to WithBatchSize packets
// (DefaultBatchSize unless overridden) via c's PacketBatch fast path when it
// has one, falling back to per-packet delivery otherwise. Batches never span
// interval boundaries — a partial batch is flushed before each EndInterval —
// so the consumer observes exactly the same packet/interval sequence at any
// batch size and produces bit-identical reports.
func Replay(src Source, c Consumer, opts ...ReplayOption) (int, error) {
	o := replayOptions{batchSize: DefaultBatchSize}
	for _, opt := range opts {
		opt(&o)
	}
	m := src.Meta()
	if err := m.Validate(); err != nil {
		return 0, err
	}
	batchSize := o.batchSize
	bc, _ := c.(BatchConsumer)
	buf := make([]flow.Packet, 0, batchSize)
	packets := 0
	flush := func() {
		if len(buf) == 0 {
			return
		}
		if bc != nil {
			bc.PacketBatch(buf)
		} else {
			for i := range buf {
				c.Packet(&buf[i])
			}
		}
		buf = buf[:0]
	}
	cur := 0
	for {
		if o.stop != nil && len(buf) == 0 && o.stop() {
			return packets, ErrStopped
		}
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			flush()
			return packets, err
		}
		iv := int(p.Time / m.Interval)
		if iv >= m.Intervals {
			iv = m.Intervals - 1
		}
		if iv < cur {
			flush()
			return packets, fmt.Errorf("trace: packet at %v out of order (interval %d < %d)", p.Time, iv, cur)
		}
		if iv > cur {
			flush()
			for cur < iv {
				c.EndInterval(cur)
				cur++
			}
		}
		buf = append(buf, p)
		packets++
		if len(buf) == batchSize {
			flush()
		}
	}
	flush()
	for cur < m.Intervals {
		c.EndInterval(cur)
		cur++
	}
	return packets, nil
}

// SliceSource serves packets from a slice. It is the in-memory Source used
// by tests and by traces loaded whole.
type SliceSource struct {
	meta Meta
	pkts []flow.Packet
	pos  int
}

// NewSliceSource builds a Source from packets, which must already be in
// non-decreasing time order.
func NewSliceSource(meta Meta, pkts []flow.Packet) *SliceSource {
	return &SliceSource{meta: meta, pkts: pkts}
}

// Meta implements Source.
func (s *SliceSource) Meta() Meta { return s.meta }

// Next implements Source.
func (s *SliceSource) Next() (flow.Packet, error) {
	if s.pos >= len(s.pkts) {
		return flow.Packet{}, io.EOF
	}
	p := s.pkts[s.pos]
	s.pos++
	return p, nil
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains a source into memory and returns a rewindable SliceSource.
func Collect(src Source) (*SliceSource, error) {
	var pkts []flow.Packet
	for {
		p, err := src.Next()
		if err == io.EOF {
			return NewSliceSource(src.Meta(), pkts), nil
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
}

// FuncConsumer adapts two closures into a Consumer.
type FuncConsumer struct {
	OnPacket      func(p *flow.Packet)
	OnEndInterval func(interval int)
}

// Packet implements Consumer.
func (f FuncConsumer) Packet(p *flow.Packet) {
	if f.OnPacket != nil {
		f.OnPacket(p)
	}
}

// EndInterval implements Consumer.
func (f FuncConsumer) EndInterval(i int) {
	if f.OnEndInterval != nil {
		f.OnEndInterval(i)
	}
}
