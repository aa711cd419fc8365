package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// daemon is one benchd instance booted in this process from the public
// service API and served over loopback.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan error

	closeOnce sync.Once
	closeErr  error
}

// quietLogger keeps benchd's per-run info logs out of the measurement
// while still surfacing its errors.
var quietLogger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))

// boot starts a daemon and returns it with its set-up time: from the
// service.New call to the first 200 from /healthz.
func boot(cfg service.Config) (*daemon, time.Duration, error) {
	cfg.Logger = quietLogger
	start := time.Now()
	srv, err := service.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, 0, fmt.Errorf("boot: listen: %w", err)
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	c := newClient(d.base)
	defer c.close()
	for {
		code, _, err := c.do("GET", "/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(start) > time.Minute {
			d.close()
			return nil, 0, fmt.Errorf("boot: /healthz never answered 200 (last code %d, error %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

// close drains and stops the daemon, then its HTTP server, and waits
// for the serve loop to return. Later calls return the first result.
func (d *daemon) close() error {
	d.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		err := d.srv.Shutdown(ctx)
		if herr := d.hs.Shutdown(ctx); err == nil {
			err = herr
		}
		if serr := <-d.done; err == nil && serr != http.ErrServerClosed {
			err = serr
		}
		d.closeErr = err
	})
	return d.closeErr
}

// client is one keep-alive HTTP connection to the daemon: the transport
// allows a single connection, and every caller issues requests from one
// goroutine, so a client is a closed-loop user.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the full response body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	code, body, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// scrape reads /metrics and sums every sample of each series name over
// its labels (histograms appear as name_sum and name_count).
func (c *client) scrape() (map[string]float64, error) {
	code, body, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	return parseMetrics(string(body)), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out
}

// event is one /v1/watch event with the time this process received it.
type event struct {
	ID       uint64            `json:"id"`
	Type     string            `json:"type"`
	Time     time.Time         `json:"time"`
	Data     map[string]string `json:"data"`
	Received time.Time         `json:"-"`
}

// watcher is one /v1/watch SSE stream on its own connection.
type watcher struct {
	events chan event
	cancel context.CancelFunc
	tr     *http.Transport
	done   chan struct{}
}

// watch subscribes to the given event types and returns once the
// daemon's greeting arrived, so no event published afterwards is missed.
func watch(base, types string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/watch?types="+types, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	greeted := false
	for !greeted && sc.Scan() {
		greeted = strings.HasPrefix(sc.Text(), ": watching")
	}
	if !greeted {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: stream ended before its greeting")
	}
	w := &watcher{
		// Sized above any window of outstanding runs, so the reader
		// never stalls the stream while the request loop is busy.
		events: make(chan event, 4096),
		cancel: cancel,
		tr:     tr,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		defer close(w.events)
		defer resp.Body.Close()
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			ev := event{Received: time.Now()}
			if json.Unmarshal([]byte(data), &ev) != nil || ev.Type == "server.shutdown" {
				return
			}
			select {
			case w.events <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return w, nil
}

// close ends the stream and waits for its reader to exit.
func (w *watcher) close() {
	w.cancel()
	for range w.events {
	}
	<-w.done
	w.tr.CloseIdleConnections()
}
