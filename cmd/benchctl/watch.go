package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/eventbus"
	"repro/internal/retry"
)

// cmdWatch streams a benchd daemon's /v1/watch SSE feed to the
// terminal: the live half of continuous benchmarking. Scheduled runs
// fire server-side; this is how an operator (or a CI log) sees them
// start, finish, and flag regressions without polling. Dropped
// connections reconnect with backoff, resuming from the last event id
// so nothing the event log still holds is missed.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "benchd base URL")
	types := fs.String("types", "", "comma-separated event type filter (default: all types)")
	asJSON := fs.Bool("json", false, "print one JSON event per line instead of columns")
	count := fs.Int("count", 0, "exit successfully after N events (0 = stream until interrupted)")
	reconnects := fs.Int("reconnects", 5, "consecutive failed connects before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// No client-side request timeout: the stream is long-lived by
	// design, and the server's heartbeats keep intermediaries convinced.
	client := &http.Client{}
	policy := retry.Default()
	policy.BaseDelay = 500 * time.Millisecond
	policy.MaxDelay = 10 * time.Second

	var lastID uint64
	seen := 0
	failures := 0
	for {
		err := streamWatch(ctx, client, *addr, *types, &lastID, func(ev eventbus.Event) bool {
			printEvent(ev, *asJSON)
			seen++
			return *count > 0 && seen >= *count
		})
		switch {
		case err == nil:
			return nil // --count satisfied or server shut down cleanly
		case ctx.Err() != nil:
			return nil // interrupted by the user
		}
		failures++
		if failures >= *reconnects {
			return fmt.Errorf("watch: %w (after %d attempts)", err, failures)
		}
		delay := policy.Delay(failures)
		fmt.Fprintf(os.Stderr, "benchctl watch: %v; reconnecting in %s\n", err, delay.Round(time.Millisecond))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil
		}
	}
}

// streamWatch opens one /v1/watch connection and feeds decoded events
// to emit until the stream ends. A successful event delivery updates
// *lastID, so the caller's next attempt resumes where this one left
// off via the Last-Event-ID header. Returns nil when emit asks to stop
// or the server sent its terminal shutdown event; any other end of
// stream is an error the caller may retry.
func streamWatch(ctx context.Context, client *http.Client, base, types string, lastID *uint64, emit func(eventbus.Event) bool) error {
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("bad --addr %q: %w", base, err)
	}
	if u.Scheme == "" {
		u, err = url.Parse("http://" + base)
		if err != nil {
			return fmt.Errorf("bad --addr %q: %w", base, err)
		}
	}
	u.Path = strings.TrimSuffix(u.Path, "/") + "/v1/watch"
	if types != "" {
		q := u.Query()
		q.Set("types", types)
		u.RawQuery = q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data == "" {
				continue // end of a comment (heartbeat, replay-gap note)
			}
			var ev eventbus.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return fmt.Errorf("bad event payload: %w", err)
			}
			data = ""
			// IDs only grow within a stream, but a restarted daemon
			// starts over at 1 (after a replay-gap notice), so the
			// cursor follows the stream instead of keeping its maximum.
			*lastID = ev.ID
			stop := emit(ev)
			if stop || ev.Type == eventbus.TypeServerShutdown {
				return nil
			}
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case strings.HasPrefix(line, ":"), strings.HasPrefix(line, "id:"), strings.HasPrefix(line, "event:"):
			// The id and type ride inside the data payload too; comments
			// are keepalives.
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("stream broken: %w", err)
	}
	return fmt.Errorf("stream ended without shutdown event")
}

// printEvent renders one event: a stable key=value column line, or raw
// JSON under --json (one event per line, pipeline-friendly).
func printEvent(ev eventbus.Event, asJSON bool) {
	if asJSON {
		out, _ := json.Marshal(ev)
		fmt.Println(string(out))
		return
	}
	keys := make([]string, 0, len(ev.Data))
	for k := range ev.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %-20s", ev.Time.Format("15:04:05"), ev.Type)
	for _, k := range keys {
		v := ev.Data[k]
		if strings.ContainsAny(v, " \t") {
			v = strconv.Quote(v)
		}
		fmt.Fprintf(&b, " %s=%s", k, v)
	}
	fmt.Println(b.String())
}
