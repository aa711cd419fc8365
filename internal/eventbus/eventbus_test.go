package eventbus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

func publish(t *testing.T, b *Bus, typ string, data map[string]string) Event {
	t.Helper()
	ev, err := b.Publish(typ, data)
	if err != nil {
		t.Fatalf("publish %s: %v", typ, err)
	}
	return ev
}

// subscribe opens a subscription at cursor after, failing the test on
// error and closing it at cleanup.
func subscribe(t *testing.T, b *Bus, types []string, after uint64) *Subscriber {
	t.Helper()
	s, err := b.Subscribe(types, after)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// next reads one event, failing the test if none arrives promptly.
func next(t *testing.T, s *Subscriber) (Event, uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ev, missed, err := s.Next(ctx)
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	return ev, missed
}

// expectIdle fails the test if s has an event ready.
func expectIdle(t *testing.T, s *Subscriber) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if ev, _, err := s.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected read %+v, %v; want nothing pending", ev, err)
	}
}

func TestFanOutOrdering(t *testing.T) {
	b := New(16)
	defer b.Close()
	subs := make([]*Subscriber, 3)
	for i := range subs {
		subs[i] = subscribe(t, b, nil, b.LastID())
	}
	want := []Event{
		publish(t, b, TypeRunStarted, map[string]string{"run_id": "run-1"}),
		publish(t, b, TypeRunFinished, map[string]string{"run_id": "run-1"}),
		publish(t, b, TypeScheduleFired, nil),
	}
	if want[0].ID >= want[1].ID || want[1].ID >= want[2].ID {
		t.Fatalf("ids not increasing: %v %v %v", want[0].ID, want[1].ID, want[2].ID)
	}
	for i, s := range subs {
		for j, w := range want {
			ev, _, err := s.Next(context.Background())
			if err != nil {
				t.Fatalf("sub %d event %d: %v", i, j, err)
			}
			if ev.ID != w.ID || ev.Type != w.Type {
				t.Fatalf("sub %d event %d = %+v, want %+v", i, j, ev, w)
			}
		}
	}
}

func TestTypeFilter(t *testing.T) {
	b := New(16)
	defer b.Close()
	s := subscribe(t, b, []string{TypeRunFinished}, 0)
	publish(t, b, TypeRunStarted, nil)
	want := publish(t, b, TypeRunFinished, nil)
	publish(t, b, TypeScheduleFired, nil)
	if ev, _ := next(t, s); ev.ID != want.ID {
		t.Fatalf("got %+v, want only %+v", ev, want)
	}
	expectIdle(t, s)

	// Readers already blocked in Next, with different filters, each
	// wake for their own type only.
	sealed := subscribe(t, b, []string{TypeStoreSealed}, b.LastID())
	got := make(chan Event, 2)
	for _, r := range []*Subscriber{s, sealed} {
		go func() {
			ev, _, err := r.Next(context.Background())
			if err != nil {
				t.Error(err)
			}
			got <- ev
		}()
	}
	time.Sleep(10 * time.Millisecond)
	publish(t, b, TypeRunStarted, nil)
	wantSealed := publish(t, b, TypeStoreSealed, nil)
	wantFinished := publish(t, b, TypeRunFinished, nil)
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		select {
		case ev := <-got:
			seen[ev.ID] = true
		case <-time.After(5 * time.Second):
			t.Fatal("a blocked filtered reader was not woken for its type")
		}
	}
	if !seen[wantSealed.ID] || !seen[wantFinished.ID] {
		t.Fatalf("woken readers got %v, want ids %d and %d", seen, wantSealed.ID, wantFinished.ID)
	}
}

// TestSlowConsumerDropOldest is the slow-consumer policy: the log
// evicts its oldest events, a cursor they overtook reports exactly how
// many it missed (of every type, filtered or not), and the consumer
// still receives the newest events in order.
func TestSlowConsumerDropOldest(t *testing.T) {
	b := New(4)
	defer b.Close()
	all := subscribe(t, b, nil, 0)
	finished := subscribe(t, b, []string{TypeRunFinished}, 0)
	var last Event
	for i := 0; i < 10; i++ {
		typ := TypeRunFinished
		if i%2 == 1 {
			typ = TypeScheduleFired
		}
		last = publish(t, b, typ, map[string]string{"i": fmt.Sprint(i)})
	}
	if last.ID != 10 {
		t.Fatalf("last id = %d", last.ID)
	}
	// The log holds ids 7..10 (i = 6..9); ids 1..6 were evicted. Each
	// subscriber's first read reports all six, whatever its filter; the
	// rest follow in order.
	reg := telemetry.DefaultRegistry
	droppedBefore, _ := reg.Value("eventbus_dropped_total", "slow_subscriber")
	for name, c := range map[string]struct {
		s    *Subscriber
		want []int
	}{"unfiltered": {all, []int{6, 7, 8, 9}}, "filtered": {finished, []int{6, 8}}} {
		wantMissed := uint64(6)
		for _, i := range c.want {
			ev, missed := next(t, c.s)
			if ev.Data["i"] != fmt.Sprint(i) || missed != wantMissed {
				t.Fatalf("%s: event = %+v missed %d, want i=%d missed %d", name, ev, missed, i, wantMissed)
			}
			wantMissed = 0
		}
		expectIdle(t, c.s)
	}
	if got, _ := reg.Value("eventbus_dropped_total", "slow_subscriber"); got != droppedBefore+12 {
		t.Fatalf("slow_subscriber delta = %v, want 12 (6 per subscriber)", got-droppedBefore)
	}
}

// TestReplaySince covers resuming from a Last-Event-ID cursor: a cursor
// still in the log resumes exactly, one the log has evicted is a gap
// that starts at the oldest retained event, and the filter applies to
// the catch-up as it does to live events.
func TestReplaySince(t *testing.T) {
	b := New(4)
	defer b.Close()
	for i := 0; i < 6; i++ {
		publish(t, b, TypeRunFinished, map[string]string{"i": fmt.Sprint(i)})
	}
	// The log holds ids 3..6. Catch-up from 4 is complete.
	s := subscribe(t, b, nil, 4)
	if s.Gap() {
		t.Fatal("unexpected gap")
	}
	for _, want := range []uint64{5, 6} {
		if ev, missed := next(t, s); ev.ID != want || missed != 0 {
			t.Fatalf("replay = id %d missed %d, want id %d", ev.ID, missed, want)
		}
	}
	expectIdle(t, s)
	// Catch-up from 1 has a hole: id 2 was evicted.
	s = subscribe(t, b, nil, 1)
	if !s.Gap() {
		t.Fatal("expected gap")
	}
	for _, want := range []uint64{3, 4, 5, 6} {
		if ev, missed := next(t, s); ev.ID != want || missed != 0 {
			t.Fatalf("replay = id %d missed %d, want id %d", ev.ID, missed, want)
		}
	}
	// Filtered replay.
	publish(t, b, TypeScheduleFired, nil)
	s = subscribe(t, b, []string{TypeScheduleFired}, 5)
	if ev, _ := next(t, s); ev.Type != TypeScheduleFired || ev.ID != 7 {
		t.Fatalf("filtered replay = %+v", ev)
	}
	expectIdle(t, s)
	// A live tail starts at LastID with no gap and nothing pending.
	s = subscribe(t, b, nil, b.LastID())
	if s.Gap() {
		t.Fatal("live tail reported a gap")
	}
	expectIdle(t, s)
}

// TestStaleCursorAfterRestart: event IDs restart at 1 on a new bus, so
// a Last-Event-ID from a previous daemon life is newer than anything
// this bus has published. It is a replay gap, counted as one, and
// delivery starts from the oldest retained event and continues live.
func TestStaleCursorAfterRestart(t *testing.T) {
	reg := telemetry.DefaultRegistry
	gapsBefore, _ := reg.Value("eventbus_dropped_total", "replay_gap")
	b := New(8)
	defer b.Close()
	for i := 0; i < 3; i++ {
		publish(t, b, TypeRunFinished, nil)
	}
	s := subscribe(t, b, nil, 1000)
	if !s.Gap() {
		t.Fatal("stale cursor not reported as a gap")
	}
	if got, _ := reg.Value("eventbus_dropped_total", "replay_gap"); got != gapsBefore+1 {
		t.Fatalf("replay_gap delta = %v, want 1", got-gapsBefore)
	}
	live := publish(t, b, TypeRunFinished, nil)
	for _, want := range []uint64{1, 2, 3, live.ID} {
		if ev, _ := next(t, s); ev.ID != want {
			t.Fatalf("got id %d, want %d", ev.ID, want)
		}
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	b := New(8)
	s := subscribe(t, b, nil, 0)
	publish(t, b, TypeRunFinished, nil)
	shutdown := publish(t, b, TypeServerShutdown, nil)
	b.Close()
	// Unread events drain in order after close...
	ev, _, err := s.Next(context.Background())
	if err != nil || ev.Type != TypeRunFinished {
		t.Fatalf("first = %+v, %v", ev, err)
	}
	ev, _, err = s.Next(context.Background())
	if err != nil || ev.ID != shutdown.ID {
		t.Fatalf("second = %+v, %v", ev, err)
	}
	// ...then the stream ends.
	if _, _, err := s.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := b.Publish(TypeRunStarted, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after close = %v", err)
	}
	if _, err := b.Subscribe(nil, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe after close = %v", err)
	}
}

func TestCloseWakesBlockedNext(t *testing.T) {
	for name, closeFn := range map[string]func(*Bus, *Subscriber){
		"bus":        func(b *Bus, _ *Subscriber) { b.Close() },
		"subscriber": func(_ *Bus, s *Subscriber) { s.Close() },
	} {
		b := New(8)
		s := subscribe(t, b, nil, 0)
		errc := make(chan error, 1)
		go func() {
			_, _, err := s.Next(context.Background())
			errc <- err
		}()
		time.Sleep(10 * time.Millisecond)
		closeFn(b, s)
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("%s close: err = %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Next did not wake on %s Close", name)
		}
		b.Close()
	}
}

func TestNextContextCancel(t *testing.T) {
	b := New(8)
	defer b.Close()
	s := subscribe(t, b, nil, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := s.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubscriberCount(t *testing.T) {
	b := New(8)
	defer b.Close()
	s1, _ := b.Subscribe(nil, 0)
	s2, _ := b.Subscribe(nil, 0)
	if got := b.Subscribers(); got != 2 {
		t.Fatalf("subscribers = %d", got)
	}
	s1.Close()
	s1.Close() // idempotent
	if got := b.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d", got)
	}
	s2.Close()
	if got := b.Subscribers(); got != 0 {
		t.Fatalf("subscribers = %d", got)
	}
}

// TestPublishFaultIsRetrySafe arms the eventbus.publish injection point
// and shows the documented contract: a failed Publish appended nothing
// (no id burned, no partial write), so a retry wrapper produces exactly
// one delivered event.
func TestPublishFaultIsRetrySafe(t *testing.T) {
	rules, err := faultinject.ParseSchedule("eventbus.publish:error:times=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Load(1, rules); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	b := New(8)
	defer b.Close()
	s := subscribe(t, b, nil, 0)

	policy := retry.Policy{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	if err := policy.Do(context.Background(), "test.publish", func(context.Context, int) error {
		_, perr := b.Publish(TypeRunFinished, nil)
		return perr
	}); err != nil {
		t.Fatalf("retried publish failed: %v", err)
	}
	if ev, _ := next(t, s); ev.ID != 1 {
		t.Fatalf("id = %d, want 1 (failed attempts must not burn ids)", ev.ID)
	}
	expectIdle(t, s) // no duplicate delivery after retry
}

// TestConcurrentPublishSubscribe hammers the bus from many goroutines
// under -race: publishers, churning subscribers, a concurrent reader and
// a slow consumer. Every subscriber sees strictly increasing IDs and
// accounts for every event exactly: dropped + read == total.
func TestConcurrentPublishSubscribe(t *testing.T) {
	const size = 256
	b := New(size)
	const publishers, perPublisher = 4, 200
	total := publishers * perPublisher

	reader := subscribe(t, b, nil, 0)
	slow := subscribe(t, b, nil, 0)

	// drain reads s, checking order, until nothing arrives for a moment
	// after stop is closed. It returns the events read and missed.
	drain := func(s *Subscriber, stop <-chan struct{}) (read, missed int, err error) {
		var lastID uint64
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			ev, n, err := s.Next(ctx)
			cancel()
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				select {
				case <-stop:
					return read, missed, nil
				default:
					continue
				}
			case err != nil:
				return read, missed, err
			case ev.ID <= lastID:
				return read, missed, fmt.Errorf("out of order: %d after %d", ev.ID, lastID)
			}
			lastID = ev.ID
			read++
			missed += int(n)
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if _, err := b.Publish(TypeRunFinished, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Churn subscribers while publishing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s, err := b.Subscribe(nil, b.LastID())
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			s.Next(ctx)
			cancel()
			s.Close()
		}
	}()
	published := make(chan struct{})
	go func() { wg.Wait(); close(published) }()

	// The concurrent reader may or may not fall behind; either way every
	// event is read or reported missed, exactly once.
	read, missed, err := drain(reader, published)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if read+missed != total {
		t.Errorf("reader read+missed = %d+%d, want %d", read, missed, total)
	}
	// The slow consumer reads only now: exactly the log's worth survives.
	read, missed, err = drain(slow, published)
	if err != nil {
		t.Fatalf("slow: %v", err)
	}
	if read != size || missed != total-size {
		t.Errorf("slow read, missed = %d, %d, want %d, %d", read, missed, size, total-size)
	}
	if b.Subscribers() != 2 {
		t.Errorf("subscribers = %d after churn, want 2", b.Subscribers())
	}
	b.Close()
}

// TestSubscribeMidLogUnderConcurrentPublish: a subscriber that starts
// from a cursor in the middle of the log while publishers are running
// sees every later event exactly once, in ID order, across the boundary
// between events retained before it subscribed and events published
// after.
func TestSubscribeMidLogUnderConcurrentPublish(t *testing.T) {
	b := New(4096)
	defer b.Close()
	const before, publishers, perPublisher = 100, 4, 200
	for i := 0; i < before; i++ {
		publish(t, b, TypeRunFinished, nil)
	}
	const total = before + publishers*perPublisher
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if _, err := b.Publish(TypeRunFinished, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	const cursor = before / 2
	s := subscribe(t, b, nil, cursor)
	if s.Gap() {
		t.Fatal("mid-log cursor reported a gap")
	}
	for want := uint64(cursor + 1); want <= total; want++ {
		ev, missed := next(t, s)
		if ev.ID != want || missed != 0 {
			t.Fatalf("got id %d (missed %d), want id %d", ev.ID, missed, want)
		}
	}
	wg.Wait()
	expectIdle(t, s)
}

func TestMetricsPublished(t *testing.T) {
	reg := telemetry.DefaultRegistry
	eventsBefore, _ := reg.Value("eventbus_events_total", TypeStoreSealed)
	droppedBefore, _ := reg.Value("eventbus_dropped_total", "slow_subscriber")

	b := New(1)
	defer b.Close()
	s := subscribe(t, b, nil, 0)
	publish(t, b, TypeStoreSealed, nil)
	publish(t, b, TypeStoreSealed, nil) // evicts the first from the 1-slot log
	if _, missed := next(t, s); missed != 1 {
		t.Errorf("missed = %d, want 1", missed)
	}

	if got, _ := reg.Value("eventbus_events_total", TypeStoreSealed); got != eventsBefore+2 {
		t.Errorf("events_total delta = %v, want 2", got-eventsBefore)
	}
	if got, _ := reg.Value("eventbus_dropped_total", "slow_subscriber"); got != droppedBefore+1 {
		t.Errorf("dropped_total delta = %v, want 1", got-droppedBefore)
	}
}
