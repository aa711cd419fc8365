package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/eventbus"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

var (
	metricWatchStreams = telemetry.DefaultRegistry.Gauge(
		"benchd_watch_streams",
		"Live /v1/watch SSE streams.").With()
	metricWatchEvents = telemetry.DefaultRegistry.Counter(
		"benchd_watch_events_total",
		"Events written to /v1/watch streams, by delivery (live, replay).",
		"delivery")
)

// handleWatch serves GET /v1/watch: the event bus as a Server-Sent
// Events stream. It is mounted outside the request-timeout handler —
// a watch stream is long-lived by design — and writes under a rolling
// per-write deadline instead, so one wedged client connection is
// reclaimed after ~two heartbeat intervals rather than holding a
// goroutine forever.
//
//	?types=run.finished,regression.detected   comma-separated filter
//	Last-Event-ID: 42                         replay after reconnect
//
// Wire shape per event:
//
//	id: 43
//	event: run.finished
//	data: {"id":43,"type":"run.finished","time":...,"data":{...}}
//
// Heartbeat comments (": heartbeat") flow while the bus is quiet so
// proxies and clients can tell a silent stream from a dead one. The
// stream is one cursor into the bus's event log, so catch-up and live
// delivery are the same loop. A hole is disclosed, never skipped
// silently: ": replay gap" when the Last-Event-ID is older than the log
// reaches (or newer than the bus, as after a daemon restart), and
// ": dropped" when a slow client's cursor was overtaken by the log's
// tail. On graceful shutdown every stream receives a terminal
// server.shutdown event and ends cleanly.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	// ResponseController reaches the real connection through the
	// instrumentation wrapper (statusWriter.Unwrap) for Flush and
	// per-write deadlines.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	var types []string
	if raw := r.URL.Query().Get("types"); raw != "" {
		known := map[string]bool{}
		for _, t := range eventbus.Types() {
			known[t] = true
		}
		for _, t := range strings.Split(raw, ",") {
			t = strings.TrimSpace(t)
			if t == "" {
				continue
			}
			if !known[t] {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("unknown event type %q (types: %s)", t, strings.Join(eventbus.Types(), ", ")))
				return
			}
			types = append(types, t)
		}
		// A shutdown must be able to terminate every stream, so the
		// terminal type is always subscribed even under a filter.
		types = append(types, eventbus.TypeServerShutdown)
	}
	// A present Last-Event-ID header resumes after that cursor; an
	// explicit 0 means "I have seen nothing — replay everything the log
	// retains". No header means a live tail from now. Events up to the
	// bus's newest at subscription count as replay, later ones as live.
	latest := s.bus.LastID()
	after, resume := latest, false
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		id, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad Last-Event-ID %q", raw))
			return
		}
		after, resume = id, true
	}
	sub, err := s.bus.Subscribe(types, after)
	if err != nil {
		writeUnavailable(w, fmt.Errorf("watch unavailable: %w", err))
		return
	}
	defer sub.Close()
	metricWatchStreams.Inc()
	defer metricWatchStreams.Dec()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	writeDeadline := 2 * s.cfg.HeartbeatInterval
	writeEvent := func(ev eventbus.Event, delivery string) error {
		// The "service.watchwrite" injection point models the stream
		// write failing (a broken pipe, a wedged proxy): the stream ends
		// and the client reconnects with Last-Event-ID.
		if err := faultinject.Fire("service.watchwrite"); err != nil {
			return err
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		rc.SetWriteDeadline(time.Now().Add(writeDeadline))
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data); err != nil {
			return err
		}
		if err := rc.Flush(); err != nil {
			return err
		}
		metricWatchEvents.With(delivery).Inc()
		return nil
	}
	comment := func(text string) error {
		rc.SetWriteDeadline(time.Now().Add(writeDeadline))
		if _, err := fmt.Fprintf(w, ": %s\n\n", text); err != nil {
			return err
		}
		return rc.Flush()
	}

	if sub.Gap() {
		// The log no longer reaches back that far (or the cursor is from
		// a previous daemon life); tell the client its view has a hole
		// instead of silently skipping it.
		if err := comment("replay gap: events before this point were evicted"); err != nil {
			return
		}
	}
	if !resume {
		if err := comment("watching"); err != nil {
			return
		}
	}
	for {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.HeartbeatInterval)
		ev, missed, err := sub.Next(ctx)
		cancel()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			if err := comment("heartbeat"); err != nil {
				return
			}
			continue
		case err != nil:
			// Bus closed (after the terminal event was read) or the
			// client went away.
			return
		}
		if missed > 0 {
			if err := comment(fmt.Sprintf("dropped (slow consumer): %d events before this point were evicted", missed)); err != nil {
				return
			}
		}
		delivery := "live"
		if ev.ID <= latest {
			delivery = "replay"
		}
		if err := writeEvent(ev, delivery); err != nil {
			return
		}
		if ev.Type == eventbus.TypeServerShutdown {
			return
		}
	}
}
