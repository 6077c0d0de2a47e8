// Package pubsub is the in-process event bus behind the live dashboard:
// pipeline hooks publish interval reports, telemetry snapshots and
// comparison results as topic-tagged events, and observers (the cmd/web SSE
// dashboard, tests, ad-hoc tooling) subscribe to the topics they care about.
//
// The bus never blocks a publisher: every subscription has a bounded queue
// and a slow subscriber loses its *oldest* queued events first (the same
// freshest-data-wins choice as the pipeline's DropOldest overload policy and
// the reliable exporter's spool) — a wedged dashboard must not stall the
// measurement path, and when it catches up it should see the most recent
// state, not a backlog of stale intervals. Lost events are counted per
// subscription, so observability of the observer is preserved.
package pubsub

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfgerr"
	"repro/internal/telemetry"
)

// DefaultQueueDepth is the per-subscription queue capacity used when
// Config.QueueDepth is zero: deep enough to ride out a scrape pause, small
// enough that a dead subscriber holds only a bounded amount of memory.
const DefaultQueueDepth = 256

// Config configures a Bus.
type Config struct {
	// QueueDepth is the default per-subscription queue capacity, in events.
	// Zero selects DefaultQueueDepth.
	QueueDepth int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QueueDepth < 0 {
		return cfgerr.New("pubsub", "QueueDepth", "must not be negative, got %d", c.QueueDepth)
	}
	return nil
}

// Option customizes a Bus beyond its Config.
type Option func(*Bus)

// WithClock overrides the bus's timestamp source (tests).
func WithClock(now func() time.Time) Option {
	return func(b *Bus) { b.now = now }
}

// Event is one published message. Payload is shared between subscribers, so
// it must be treated as immutable once published.
type Event struct {
	// Topic is the publisher-chosen routing key ("reports", "events/compare").
	Topic string `json:"topic"`
	// Seq is the bus-wide publish sequence number, so a subscriber can detect
	// gaps its own queue overflow produced.
	Seq uint64 `json:"seq"`
	// Time is when the event was published.
	Time time.Time `json:"time"`
	// Payload is the event body.
	Payload any `json:"payload"`
}

// Bus routes published events to matching subscriptions. The zero value is
// not usable; construct with New.
type Bus struct {
	now        func() time.Time
	queueDepth int
	seq        atomic.Uint64
	published  atomic.Uint64
	delivered  atomic.Uint64
	dropped    atomic.Uint64

	mu     sync.RWMutex
	subs   []*Subscription
	closed bool
}

// New builds a bus.
func New(cfg Config, opts ...Option) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	b := &Bus{now: time.Now, queueDepth: depth}
	for _, opt := range opts {
		opt(b)
	}
	return b, nil
}

// Subscription is one subscriber's bounded event queue. Receive from C;
// Cancel when done.
type Subscription struct {
	// C delivers matching events. It is closed by Cancel and by Bus.Close.
	C <-chan Event

	bus     *Bus
	ch      chan Event
	topics  []string
	dropped atomic.Uint64
	done    chan struct{}
	once    sync.Once
}

// Subscribe registers a subscription for the given topic patterns. A pattern
// matches its topic exactly, or — when it ends in "/" or is "" — matches any
// topic it prefixes ("" subscribes to everything, "events/" to every event
// kind). depth <= 0 selects the bus default queue depth.
func (b *Bus) Subscribe(depth int, topics ...string) *Subscription {
	if depth <= 0 {
		depth = b.queueDepth
	}
	s := &Subscription{
		bus:    b,
		ch:     make(chan Event, depth),
		topics: append([]string(nil), topics...),
		done:   make(chan struct{}),
	}
	s.C = s.ch
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.ch)
		return s
	}
	b.subs = append(b.subs, s)
	return s
}

// matches reports whether the subscription wants topic.
func (s *Subscription) matches(topic string) bool {
	if len(s.topics) == 0 {
		return true
	}
	for _, t := range s.topics {
		if t == topic || t == "" || (strings.HasSuffix(t, "/") && strings.HasPrefix(topic, t)) {
			return true
		}
	}
	return false
}

// Dropped returns how many events this subscription lost to queue overflow.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel removes the subscription and closes its channel. Idempotent; safe
// to call concurrently with Publish.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		close(s.done)
		b := s.bus
		b.mu.Lock()
		for i, other := range b.subs {
			if other == s {
				b.subs = append(b.subs[:i], b.subs[i+1:]...)
				break
			}
		}
		closed := b.closed
		b.mu.Unlock()
		if !closed {
			close(s.ch)
		}
	})
}

// Publish delivers an event to every matching subscription without ever
// blocking: a full subscription queue sheds its oldest event (counted on the
// subscription and on the bus) so the newest state always gets through.
func (b *Bus) Publish(topic string, payload any) {
	e := Event{Topic: topic, Seq: b.seq.Add(1), Time: b.now(), Payload: payload}
	b.published.Add(1)
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return
	}
	for _, s := range b.subs {
		if !s.matches(topic) {
			continue
		}
		for {
			select {
			case s.ch <- e:
				b.delivered.Add(1)
			default:
				// Queue full: shed the oldest queued event and retry. The
				// subscriber may race us consuming, in which case the retry
				// just succeeds.
				select {
				case <-s.ch:
					s.dropped.Add(1)
					b.dropped.Add(1)
				default:
				}
				continue
			}
			break
		}
	}
}

// Close shuts the bus down: every subscription channel is closed and further
// publishes are dropped. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, s := range b.subs {
		close(s.ch)
	}
	b.subs = nil
}

// Stats returns the bus's live counters.
func (b *Bus) Stats() telemetry.BusSnapshot {
	b.mu.RLock()
	subs := len(b.subs)
	b.mu.RUnlock()
	return telemetry.BusSnapshot{
		Subscribers: subs,
		Published:   b.published.Load(),
		Delivered:   b.delivered.Load(),
		Dropped:     b.dropped.Load(),
	}
}
