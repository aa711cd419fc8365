package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/eventbus"
)

// TestStreamWatchResumes: a broken stream is an error the caller
// retries, and the retry carries Last-Event-ID so the server replays
// what was missed; the terminal server.shutdown event ends the stream
// cleanly.
func TestStreamWatchResumes(t *testing.T) {
	var lastEventIDs []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/watch" {
			http.NotFound(w, r)
			return
		}
		lastEventIDs = append(lastEventIDs, r.Header.Get("Last-Event-ID"))
		w.Header().Set("Content-Type", "text/event-stream")
		if len(lastEventIDs) == 1 {
			// First connection: greeting, two events, then an abrupt end.
			fmt.Fprint(w, ": watching\n\n")
			fmt.Fprint(w, "id: 1\nevent: run.started\ndata: {\"id\":1,\"type\":\"run.started\",\"data\":{\"run_id\":\"run-000001\"}}\n\n")
			fmt.Fprint(w, "id: 2\nevent: run.finished\ndata: {\"id\":2,\"type\":\"run.finished\",\"data\":{\"run_id\":\"run-000001\"}}\n\n")
			return
		}
		// Reconnection: one more event, then a clean shutdown.
		fmt.Fprint(w, "id: 3\nevent: store.sealed\ndata: {\"id\":3,\"type\":\"store.sealed\"}\n\n")
		fmt.Fprint(w, "id: 4\nevent: server.shutdown\ndata: {\"id\":4,\"type\":\"server.shutdown\"}\n\n")
	}))
	defer ts.Close()

	var got []string
	var lastID uint64
	emit := func(ev eventbus.Event) bool {
		got = append(got, ev.Type)
		return false
	}
	err := streamWatch(context.Background(), ts.Client(), ts.URL, "", &lastID, emit)
	if err == nil || !strings.Contains(err.Error(), "stream ended") {
		t.Fatalf("first stream error = %v, want a retryable stream-ended error", err)
	}
	if lastID != 2 {
		t.Fatalf("lastID after first stream = %d, want 2", lastID)
	}

	if err := streamWatch(context.Background(), ts.Client(), ts.URL, "", &lastID, emit); err != nil {
		t.Fatalf("second stream: %v", err)
	}
	if lastEventIDs[0] != "" || lastEventIDs[1] != "2" {
		t.Errorf("Last-Event-ID headers = %q, want [\"\" \"2\"]", lastEventIDs)
	}
	want := []string{"run.started", "run.finished", "store.sealed", "server.shutdown"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("events = %v, want %v", got, want)
	}
	if lastID != 4 {
		t.Errorf("final lastID = %d, want 4", lastID)
	}
}

// TestStreamWatchCursorFollowsRestart: a restarted daemon numbers its
// events from 1 again and answers a stale Last-Event-ID with a replay
// gap, so the client's cursor must follow the new IDs down — a cursor
// stuck at the old maximum would resume the next connection past
// everything the new daemon has.
func TestStreamWatchCursorFollowsRestart(t *testing.T) {
	var lastEventIDs []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastEventIDs = append(lastEventIDs, r.Header.Get("Last-Event-ID"))
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": replay gap: events before this point were evicted\n\n")
		fmt.Fprint(w, "id: 1\nevent: run.started\ndata: {\"id\":1,\"type\":\"run.started\"}\n\n")
		fmt.Fprint(w, "id: 2\nevent: run.finished\ndata: {\"id\":2,\"type\":\"run.finished\"}\n\n")
	}))
	defer ts.Close()

	lastID := uint64(1000)
	for i := 0; i < 2; i++ {
		streamWatch(context.Background(), ts.Client(), ts.URL, "", &lastID, func(eventbus.Event) bool { return false })
		if lastID != 2 {
			t.Fatalf("lastID after stream %d = %d, want 2", i, lastID)
		}
	}
	if fmt.Sprint(lastEventIDs) != "[1000 2]" {
		t.Errorf("Last-Event-ID headers = %q, want [1000 2]", lastEventIDs)
	}
}

// TestStreamWatchTypesAndErrors: the type filter lands on the query
// string, emit can stop the stream early, and HTTP errors surface with
// the server's message.
func TestStreamWatchTypesAndErrors(t *testing.T) {
	var gotQuery string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotQuery = r.URL.RawQuery
		if r.URL.Query().Get("types") == "bogus" {
			http.Error(w, `{"error":"unknown event type"}`, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 1; i <= 5; i++ {
			fmt.Fprintf(w, "id: %d\nevent: run.finished\ndata: {\"id\":%d,\"type\":\"run.finished\"}\n\n", i, i)
		}
	}))
	defer ts.Close()

	var lastID uint64
	err := streamWatch(context.Background(), ts.Client(), ts.URL, "bogus", &lastID, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown event type") {
		t.Fatalf("bad type error = %v", err)
	}

	n := 0
	err = streamWatch(context.Background(), ts.Client(), ts.URL, "run.finished", &lastID, func(ev eventbus.Event) bool {
		n++
		return n == 2 // stop early
	})
	if err != nil {
		t.Fatalf("early stop: %v", err)
	}
	if n != 2 || lastID != 2 {
		t.Errorf("stopped after %d events, lastID=%d; want 2, 2", n, lastID)
	}
	if !strings.Contains(gotQuery, "types=run.finished") {
		t.Errorf("query = %q, want a types filter", gotQuery)
	}
}
