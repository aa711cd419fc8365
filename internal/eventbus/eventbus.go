// Package eventbus is the daemon's in-process pub/sub spine: the run
// pipeline, the recurring-suite scheduler, and the storage engine
// publish typed events here, and any number of consumers — the
// /v1/watch SSE streams, the chaos harness, future federation hooks —
// subscribe without ever being able to stall a publisher.
//
// Every event lives in one place: a bounded log of the most recent
// events (all types) on the bus. A subscriber is only a type filter and
// a cursor — the ID of the last event it read — into that log, like a
// consumer offset. Publish appends and wakes readers; it never visits
// or waits on a subscriber. When the log is full the *oldest* event is
// evicted, and a subscriber whose cursor it passed learns on its next
// read how many events it missed. A stalled dashboard therefore costs
// itself history, never ingest latency or other subscribers' events.
// A reconnecting consumer resumes by subscribing at its Last-Event-ID,
// so catch-up and live delivery are the same read loop.
package eventbus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Event types published by the daemon. Subscribers filter on these
// names; the wire (SSE "event:" field) carries them verbatim.
const (
	TypeRunStarted         = "run.started"
	TypeRunFinished        = "run.finished"
	TypeRegressionDetected = "regression.detected"
	TypeScheduleFired      = "schedule.fired"
	TypeStoreSealed        = "store.sealed"
	TypeAlertFired         = "alert.fired"
	TypeAlertResolved      = "alert.resolved"
	TypeServerShutdown     = "server.shutdown"
)

// Types lists every event type the daemon publishes, for validation
// and documentation surfaces.
func Types() []string {
	return []string{
		TypeRunStarted, TypeRunFinished, TypeRegressionDetected,
		TypeScheduleFired, TypeStoreSealed, TypeAlertFired,
		TypeAlertResolved, TypeServerShutdown,
	}
}

// Event is one bus message. IDs are assigned by the bus, strictly
// increasing across all types, and never reused — they are the SSE
// Last-Event-ID cursor.
type Event struct {
	ID   uint64            `json:"id"`
	Type string            `json:"type"`
	Time time.Time         `json:"time"`
	Data map[string]string `json:"data,omitempty"`
}

// ErrClosed is returned by Publish, Subscribe, and Subscriber.Next
// after Close: the daemon is shutting down and no further events will
// flow. It is permanent (not transient), so retrying publishers give up
// cleanly.
var ErrClosed = errors.New("eventbus: closed")

var (
	metricEvents = telemetry.DefaultRegistry.Counter(
		"eventbus_events_total",
		"Events published to the bus, by type.",
		"type")
	metricSubscribers = telemetry.DefaultRegistry.Gauge(
		"eventbus_subscribers",
		"Live bus subscribers.").With()
	metricDropped = telemetry.DefaultRegistry.Counter(
		"eventbus_dropped_total",
		"Events lost instead of delivered, by reason (slow_subscriber: events of any type evicted from the log before a live subscriber's cursor read them; replay_gap: subscriptions whose starting cursor was already evicted or is newer than the bus, such as a Last-Event-ID from before a restart).",
		"reason")
)

// Bus is the concurrency-safe event log. The zero value is not usable;
// call New.
type Bus struct {
	// Now supplies event timestamps (defaults to time.Now; fixed in
	// tests for deterministic events).
	Now func() time.Time

	mu     sync.Mutex
	seq    uint64 // ID of the newest event (0 before any publish)
	subs   int
	closed bool
	// wake is closed (and cleared) to wake every blocked reader; nil
	// while nobody waits. waiting counts the blocked readers by the event
	// type they want ("" = any), so Publish wakes them only for an event
	// one of them reads: a woken reader that finds nothing costs its
	// stream a scheduling round.
	wake    chan struct{}
	waiting map[string]int

	// log is a bounded ring of the most recent events, IDs
	// seq-len(log)+1 .. seq. start indexes the oldest once it has
	// wrapped.
	log   []Event
	size  int
	start int
}

// New builds a bus whose log retains the last size events (default
// 1024 when <= 0).
func New(size int) *Bus {
	if size <= 0 {
		size = 1024
	}
	return &Bus{Now: time.Now, size: size, waiting: map[string]int{}}
}

// Publish stamps and appends one event, evicting the oldest when the
// log is full. It never blocks on consumers. The "eventbus.publish"
// injection point fires before any state changes, so a failed Publish
// delivered nothing and is safe to retry without duplicating events.
func (b *Bus) Publish(typ string, data map[string]string) (Event, error) {
	if err := faultinject.Fire("eventbus.publish"); err != nil {
		return Event{}, fmt.Errorf("eventbus: publish %s: %w", typ, err)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Event{}, ErrClosed
	}
	b.seq++
	ev := Event{ID: b.seq, Type: typ, Time: b.Now(), Data: data}
	if len(b.log) < b.size {
		b.log = append(b.log, ev)
	} else {
		b.log[b.start] = ev
		b.start = (b.start + 1) % b.size
	}
	if b.waiting[typ] > 0 || b.waiting[""] > 0 {
		b.broadcast()
	}
	b.mu.Unlock()
	metricEvents.With(typ).Inc()
	return ev, nil
}

// broadcast wakes every waiting reader. Called with b.mu held.
func (b *Bus) broadcast() {
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
		clear(b.waiting)
	}
}

// evicted returns the ID of the newest event no longer in the log.
// Called with b.mu held.
func (b *Bus) evicted() uint64 { return b.seq - uint64(len(b.log)) }

// Subscribe registers a consumer for the given event types (nil or
// empty = every type) that reads the events after cursor `after`: a
// Last-Event-ID to resume from, or LastID() for a live tail. A cursor
// the log no longer reaches back to, or one newer than the bus (an ID
// from before a daemon restart), is a replay gap: the subscriber starts
// at the oldest retained event and Gap reports it. Close the
// subscriber when done.
func (b *Bus) Subscribe(types []string, after uint64) (*Subscriber, error) {
	var want map[string]struct{}
	if len(types) > 0 {
		want = make(map[string]struct{}, len(types))
		for _, t := range types {
			want[t] = struct{}{}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	sub := &Subscriber{bus: b, types: want, cursor: after}
	if after < b.evicted() || after > b.seq {
		sub.gap = true
		sub.cursor = b.evicted()
		metricDropped.With("replay_gap").Inc()
	}
	b.subs++
	metricSubscribers.Inc()
	return sub, nil
}

// LastID returns the most recently assigned event ID (0 before any
// publish).
func (b *Bus) LastID() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Subscribers returns the count of subscribers not yet Closed.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.subs
}

// Close shuts the bus: subsequent Publish/Subscribe return ErrClosed,
// and every subscriber's Next drains the events left past its cursor
// and then returns ErrClosed. Close is idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.broadcast()
}

// Subscriber is one consumer: a type filter and a cursor into the
// bus's log. It holds no events of its own.
type Subscriber struct {
	bus   *Bus
	types map[string]struct{}
	gap   bool

	// Guarded by bus.mu.
	closed bool
	cursor uint64 // ID of the last event read or skipped
	missed uint64 // evictions past the cursor not yet reported by Next
}

// Gap reports whether the starting cursor was past the log's tail, so
// the subscriber began at the oldest retained event instead.
func (s *Subscriber) Gap() bool { return s.gap }

// catchUp moves a cursor the log's tail has overtaken up to the tail,
// counting the evicted events as missed. Called with bus.mu held.
func (s *Subscriber) catchUp() {
	if lost := s.bus.evicted(); s.cursor < lost {
		n := lost - s.cursor
		s.cursor = lost
		s.missed += n
		metricDropped.With("slow_subscriber").Add(float64(n))
	}
}

// Next blocks until an event of the subscribed types follows the
// cursor, the context ends, or the subscriber (or bus) is closed. The
// second result counts the events of any type that were evicted from the log
// past the cursor since the previous Next returned an event — nonzero
// means the stream has a hole just before ev. After the bus closes, the
// events left in the log are still drained in order before ErrClosed
// is returned, so a shutdown event published just before Close always
// reaches prompt consumers.
func (s *Subscriber) Next(ctx context.Context) (Event, uint64, error) {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	for !s.closed {
		s.catchUp()
		for s.cursor < b.seq {
			s.cursor++
			ev := b.log[(b.start+int(s.cursor-b.evicted()-1))%len(b.log)]
			if _, ok := s.types[ev.Type]; ok || s.types == nil {
				missed := s.missed
				s.missed = 0
				return ev, missed, nil
			}
		}
		if b.closed {
			break
		}
		if b.wake == nil {
			b.wake = make(chan struct{})
		}
		if s.types == nil {
			b.waiting[""]++
		}
		for t := range s.types {
			b.waiting[t]++
		}
		wake := b.wake
		b.mu.Unlock()
		select {
		case <-wake:
			b.mu.Lock()
		case <-ctx.Done():
			b.mu.Lock()
			return Event{}, 0, ctx.Err()
		}
	}
	return Event{}, 0, ErrClosed
}

// Close unregisters the subscriber, counting any events already evicted
// past its cursor as dropped; a blocked Next returns ErrClosed.
// Idempotent.
func (s *Subscriber) Close() {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	s.catchUp()
	s.closed = true
	b.subs--
	metricSubscribers.Dec()
	b.broadcast()
}
