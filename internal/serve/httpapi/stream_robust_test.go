package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mvg/internal/serve/core"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"strings"
	"testing"
	"time"
)

// heldStream is one NDJSON dialogue kept open under test control: samples
// go in through the pipe, response lines come out of events().
type heldStream struct {
	w      *io.PipeWriter
	respc  chan *http.Response
	t      *testing.T
	events chan streamEvent
	eof    chan struct{}
}

// openStream starts a stream dialogue against url, writes the given
// samples, and leaves the request body open so the session stays
// registered. The returned heldStream reads response lines in the
// background.
func openStream(t *testing.T, url string, samples []float64) *heldStream {
	t.Helper()
	pr, pw := io.Pipe()
	h := &heldStream{
		w:      pw,
		respc:  make(chan *http.Response, 1),
		t:      t,
		events: make(chan streamEvent, 64),
		eof:    make(chan struct{}),
	}
	go func() {
		resp, err := http.Post(url, "application/x-ndjson", pr)
		if err != nil {
			close(h.respc)
			close(h.eof)
			return
		}
		h.respc <- resp
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var ev streamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err == nil {
				h.events <- ev
			}
		}
		resp.Body.Close()
		close(h.eof)
	}()
	for _, x := range samples {
		if _, err := fmt.Fprintf(pw, "%g\n", x); err != nil {
			t.Fatalf("writing sample: %v", err)
		}
	}
	return h
}

// next waits for one response line.
func (h *heldStream) next() streamEvent {
	h.t.Helper()
	select {
	case ev := <-h.events:
		return ev
	case <-time.After(10 * time.Second):
		h.t.Fatal("timed out waiting for a stream response line")
		return streamEvent{}
	}
}

// waitEOF waits for the server to end the dialogue.
func (h *heldStream) waitEOF() {
	h.t.Helper()
	select {
	case <-h.eof:
	case <-time.After(10 * time.Second):
		h.t.Fatal("timed out waiting for end of stream")
	}
}

func (h *heldStream) close() { h.w.Close() }

// TestStreamTenantQuota: with a one-stream-per-tenant quota, a tenant's
// second concurrent dialogue is shed with 429 + Retry-After while another
// tenant still gets in; closing the first dialogue frees the quota.
func TestStreamTenantQuota(t *testing.T) {
	srv, ts := newTestServer(t, core.Config{
		MaxStreams:          8,
		MaxStreamsPerTenant: 1,
		RetryAfter:          3 * time.Second,
	})
	samples := testInputs(1, 30)[0]

	// Both the held stream and the rejected one come from 127.0.0.1, so
	// they share the default remote-addr tenant.
	held := openStream(t, ts.URL+"/v1/models/demo/stream", samples)
	first := held.next()
	if first.Class == nil {
		t.Fatalf("expected a prediction line, got %+v", first)
	}
	waitUntil(t, "session registration", func() bool { return sessionsActive(srv) == 1 })
	if got := srv.Engine().Metrics().ActiveStreams(); got != 1 {
		t.Fatalf("active_streams = %d, want 1", got)
	}

	resp, err := http.Post(ts.URL+"/v1/models/demo/stream", "application/x-ndjson", strings.NewReader("1\n"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second same-tenant stream status = %d, want 429; body %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if !strings.Contains(string(data), "tenant") {
		t.Fatalf("quota rejection body = %s", data)
	}
	if got := srv.Engine().Metrics().ShedTotal(); got != 1 {
		t.Fatalf("shed_total = %d, want 1", got)
	}

	// A different tenant is not affected by this tenant's quota.
	resp2, events := postStream(t, ts.URL+"/v1/models/demo/stream?tenant=other", streamBody(samples))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other-tenant stream status = %d, want 200", resp2.StatusCode)
	}
	if last := events[len(events)-1]; !last.Done {
		t.Fatalf("other-tenant stream terminal line = %+v", last)
	}

	// Quota is released with the dialogue.
	held.close()
	held.waitEOF()
	waitUntil(t, "session release", func() bool { return sessionsActive(srv) == 0 })
	resp3, _ := postStream(t, ts.URL+"/v1/models/demo/stream", streamBody(samples))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("stream after quota release status = %d, want 200", resp3.StatusCode)
	}
}

// TestStreamServerLimit: the global stream ceiling rejects dialogue N+1
// with 429 even when it belongs to a fresh tenant.
func TestStreamServerLimit(t *testing.T) {
	srv, ts := newTestServer(t, core.Config{MaxStreams: 1, MaxStreamsPerTenant: -1})
	samples := testInputs(1, 31)[0]

	held := openStream(t, ts.URL+"/v1/models/demo/stream?tenant=a", samples)
	held.next()
	waitUntil(t, "session registration", func() bool { return sessionsActive(srv) == 1 })

	resp, err := http.Post(ts.URL+"/v1/models/demo/stream?tenant=b", "application/x-ndjson", strings.NewReader("1\n"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit stream status = %d, want 429; body %s", resp.StatusCode, data)
	}
	held.close()
	held.waitEOF()
}

// TestStreamIdleEviction: a dialogue that stops sending samples is evicted
// at the idle deadline with a terminal error line, a counted eviction, and
// a freed session slot.
func TestStreamIdleEviction(t *testing.T) {
	srv, ts := newTestServer(t, core.Config{StreamIdleTimeout: 100 * time.Millisecond})
	samples := testInputs(1, 32)[0]

	start := time.Now()
	held := openStream(t, ts.URL+"/v1/models/demo/stream", samples)
	first := held.next()
	if first.Class == nil {
		t.Fatalf("expected a prediction line, got %+v", first)
	}
	// ... and now the client goes quiet without closing the body.
	evict := held.next()
	if evict.Error == "" || !strings.Contains(evict.Error, "idle") {
		t.Fatalf("expected idle eviction error line, got %+v", evict)
	}
	held.waitEOF()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("idle eviction took %v with a 100ms deadline", elapsed)
	}
	if got := srv.Engine().Metrics().StreamEvictedTotal(core.EvictIdle); got != 1 {
		t.Fatalf("stream_evicted_total{idle} = %d, want 1", got)
	}
	waitUntil(t, "session release", func() bool { return sessionsActive(srv) == 0 })
	held.close()

	// Before any output the same eviction is a plain 408 status.
	resp, err := http.Post(ts.URL+"/v1/models/demo/stream", "application/x-ndjson", newSilentBody())
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("pre-output idle eviction status = %d, want 408; body %s", resp.StatusCode, data)
	}
	if got := srv.Engine().Metrics().StreamEvictedTotal(core.EvictIdle); got != 2 {
		t.Fatalf("stream_evicted_total{idle} = %d, want 2", got)
	}
}

// silentBody is a request body that never produces a byte — a client that
// opened a stream and went quiet. Close (called by the transport when the
// request ends) releases the blocked Read so no goroutine outlives it.
type silentBody struct{ unblock chan struct{} }

func newSilentBody() *silentBody { return &silentBody{unblock: make(chan struct{})} }

func (b *silentBody) Read(p []byte) (int, error) { <-b.unblock; return 0, io.EOF }

func (b *silentBody) Close() error {
	select {
	case <-b.unblock:
	default:
		close(b.unblock)
	}
	return nil
}

// stuckClientWriter is a ResponseWriter standing in for a connection whose
// peer stopped reading: it accepts budget bytes (the kernel buffers), then
// every write fails with the write-deadline error net/http surfaces when
// SetWriteDeadline expires.
type stuckClientWriter struct {
	header http.Header
	code   int
	buf    strings.Builder
	budget int
}

func (w *stuckClientWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *stuckClientWriter) WriteHeader(code int) { w.code = code }

func (w *stuckClientWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.buf.Len()+len(p) > w.budget {
		return 0, fmt.Errorf("write tcp 127.0.0.1: %w", os.ErrDeadlineExceeded)
	}
	return w.buf.Write(p)
}

// TestStreamSlowReaderEviction: when response writes die on the write
// deadline (the client stopped reading), the dialogue is evicted and
// counted under reason="slow_reader" instead of spinning on a dead pipe.
func TestStreamSlowReaderEviction(t *testing.T) {
	srv, _ := newTestServer(t, core.Config{})
	base := testInputs(1, 33)[0]
	samples := append(append([]float64{}, base...), base[:8]...) // hop=1: 9 prediction lines

	w := &stuckClientWriter{budget: 300} // roughly two prediction lines
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // stands in for net/http cancelling the request context on return
	req := httptest.NewRequest("POST", "/v1/models/demo/stream?hop=1", strings.NewReader(streamBody(samples))).WithContext(ctx)
	srv.ServeHTTP(w, req)

	if w.code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (failure was mid-stream)", w.code)
	}
	if !strings.Contains(w.buf.String(), `"class"`) {
		t.Fatalf("no prediction line got through before the stall:\n%s", w.buf.String())
	}
	if got := srv.Engine().Metrics().StreamEvictedTotal(core.EvictSlowReader); got != 1 {
		t.Fatalf("stream_evicted_total{slow_reader} = %d, want 1", got)
	}
	if got := sessionsActive(srv); got != 0 {
		t.Fatalf("sessions still active after eviction: %d", got)
	}
}

// TestStreamDrainDone: DrainStreams (wired to http.Server.Shutdown in
// mvgserve) ends live dialogues with a done line marked draining, and new
// dialogues are refused with 503.
func TestStreamDrainDone(t *testing.T) {
	srv, ts := newTestServer(t, core.Config{})
	samples := testInputs(1, 34)[0]

	held := openStream(t, ts.URL+"/v1/models/demo/stream", samples)
	first := held.next()
	if first.Class == nil {
		t.Fatalf("expected a prediction line, got %+v", first)
	}

	srv.Engine().DrainStreams()
	done := held.next()
	if !done.Done || !done.Draining {
		t.Fatalf("drain terminal line = %+v, want done with draining=true", done)
	}
	if done.Samples == 0 || done.Predictions != 1 {
		t.Fatalf("drain terminal line = %+v, want the dialogue's tallies", done)
	}
	held.waitEOF()
	held.close()

	resp, err := http.Post(ts.URL+"/v1/models/demo/stream", "application/x-ndjson", strings.NewReader("1\n"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream while draining status = %d, want 503; body %s", resp.StatusCode, data)
	}
}

// TestStreamTenantKey pins the quota-key derivation: explicit ?tenant=
// wins, then the RemoteAddr host, then the raw RemoteAddr.
func TestStreamTenantKey(t *testing.T) {
	cases := []struct {
		url, remote, want string
	}{
		{"/v1/models/demo/stream?tenant=acme", "10.0.0.1:4242", "acme"},
		{"/v1/models/demo/stream", "10.0.0.1:4242", "10.0.0.1"},
		{"/v1/models/demo/stream", "weird-addr", "weird-addr"},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("POST", tc.url, nil)
		r.RemoteAddr = tc.remote
		if got := streamTenant(r); got != tc.want {
			t.Errorf("streamTenant(%q, remote %q) = %q, want %q", tc.url, tc.remote, got, tc.want)
		}
	}
}

// TestStreamEarlyExitKeepsConnection: a dialogue that ends while request
// bytes are still unread — here a malformed first sample ahead of a long
// tail, the same exit as a mid-dialogue fault — must leave its keep-alive
// connection healthy for the client's next request. If the handler returns
// with the body unread, net/http drains it only after the handler, arms
// its background read at EOF, and then panics the connection goroutine
// ("invalid concurrent Body.Read call") as it waits for the next request,
// so that request is reset or must redial.
func TestStreamEarlyExitKeepsConnection(t *testing.T) {
	_, ts := newTestServer(t, core.Config{})
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	post := func(body string) (status int, reused bool) {
		t.Helper()
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodPost, ts.URL+"/v1/models/demo/stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, reused
	}

	// The tail is well past the body reader's 4 KB line buffer.
	tail := strings.Repeat("0.5\n", 4096)
	if status, _ := post("not-a-number\n" + tail); status != http.StatusBadRequest {
		t.Fatalf("malformed stream status = %d, want 400", status)
	}
	status, reused := post(streamBody(testInputs(1, 43)[0]))
	if status != http.StatusOK {
		t.Fatalf("follow-up stream status = %d, want 200", status)
	}
	if !reused {
		t.Fatal("follow-up stream dialled a new connection: the early-exit dialogue broke its keep-alive connection")
	}
}
