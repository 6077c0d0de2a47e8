// Package live drives a measurement consumer from a live packet feed,
// closing measurement intervals on wall-clock boundaries instead of trace
// timestamps. Offline replay (trace.Replay) derives interval boundaries
// from packet times; a device on a real link must close intervals even
// when the link goes quiet, which is what the Runner's ticker does.
package live

import (
	"context"
	"sync"
	"time"

	"repro/internal/cfgerr"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config configures a Runner.
type Config struct {
	// Consumer receives packets and interval boundaries (typically a
	// *device.Device, *device.Multi or a pipeline).
	Consumer trace.Consumer
	// Interval is the default wall-clock interval length used when Run is
	// called with a zero interval. Optional: zero means Run's argument is
	// always used.
	Interval time.Duration
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Consumer == nil {
		return cfgerr.New("live", "Consumer", "is required")
	}
	if c.Interval < 0 {
		return cfgerr.New("live", "Interval", "must not be negative, got %v", c.Interval)
	}
	return nil
}

// Option customizes a Runner beyond its Config.
type Option func(*Runner)

// WithClock overrides the runner's tick timestamp source (tests).
func WithClock(now func() time.Time) Option {
	return func(r *Runner) { r.now = now }
}

// Reporter is a consumer that accumulates interval reports; Device and
// Pipeline both implement it.
type Reporter interface {
	Reports() []core.IntervalReport
}

// Runner serializes packets and interval ticks into a trace.Consumer,
// which is not otherwise safe for concurrent use. Packets may arrive from
// any goroutine; the tick source runs in its own.
type Runner struct {
	mu          sync.Mutex
	consumer    trace.Consumer
	intervalLen time.Duration
	now         func() time.Time
	interval    int
	packets     uint64
	// sinceTick counts packets in the interval currently open, so Run can
	// skip closing an empty final partial interval.
	sinceTick uint64
	tel       telemetry.Runner
}

// New validates cfg and builds a runner.
func New(cfg Config, opts ...Option) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{consumer: cfg.Consumer, intervalLen: cfg.Interval, now: time.Now}
	for _, opt := range opts {
		opt(r)
	}
	return r, nil
}

// NewRunner wraps a consumer (typically a *device.Device or *device.Multi);
// it is the no-configuration shorthand for New(Config{Consumer: c}).
func NewRunner(c trace.Consumer) *Runner {
	return &Runner{consumer: c, now: time.Now}
}

// Packet feeds one packet; safe for concurrent use.
func (r *Runner) Packet(p *flow.Packet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consumer.Packet(p)
	r.packets++
	r.sinceTick++
	r.tel.ObservePacket()
}

// Tick closes the current measurement interval and returns its index.
func (r *Runner) Tick() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.interval
	r.consumer.EndInterval(i)
	r.interval++
	r.sinceTick = 0
	r.tel.ObserveTick(r.now())
	return i
}

// Intervals returns how many intervals have been closed.
func (r *Runner) Intervals() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.interval
}

// Packets returns how many packets have been fed.
func (r *Runner) Packets() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.packets
}

// Reports returns the wrapped consumer's accumulated interval reports, so
// callers no longer need to hold a second reference to the device just to
// read its output. It returns nil when the consumer does not accumulate
// reports (e.g. a MultiDevice — read each member device instead).
func (r *Runner) Reports() []core.IntervalReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rep, ok := r.consumer.(Reporter); ok {
		return rep.Reports()
	}
	return nil
}

// Stats returns the runner's live counters. Unlike Packets/Intervals it
// does not take the runner lock, so it is safe to call from a monitoring
// goroutine (an expvar handler) without contending with the packet path.
func (r *Runner) Stats() telemetry.RunnerSnapshot {
	return r.tel.Snapshot()
}

// Run ticks every interval of wall-clock time until the context is
// cancelled, then closes one final partial interval — skipped when no
// packet arrived since the last tick, so cancellation right after a
// boundary does not append an empty trailing report. A zero interval
// falls back to Config.Interval.
func (r *Runner) Run(ctx context.Context, interval time.Duration) {
	if interval == 0 {
		interval = r.intervalLen
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			r.mu.Lock()
			empty := r.sinceTick == 0
			r.mu.Unlock()
			if !empty {
				r.Tick()
			}
			return
		case <-t.C:
			r.Tick()
		}
	}
}
