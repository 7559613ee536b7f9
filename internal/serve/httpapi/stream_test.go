package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mvg/internal/serve/core"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamEvent is the decode superset of the /stream endpoint's four
// response line shapes (StreamPrediction, StreamAlertEvent, done, error).
// Prediction lines have Class != nil; alert lines have Alert != "".
type streamEvent struct {
	Sample      int       `json:"sample"`
	Class       *int      `json:"class"`
	Proba       []float64 `json:"proba"`
	Drift       *float64  `json:"drift"`
	Alert       string    `json:"alert"`
	From        string    `json:"from"`
	To          string    `json:"to"`
	Value       float64   `json:"value"`
	Done        bool      `json:"done"`
	Samples     int       `json:"samples"`
	Predictions int       `json:"predictions"`
	Draining    bool      `json:"draining"`
	Error       string    `json:"error"`
}

// streamBody renders samples as the NDJSON request body (one per line).
func streamBody(samples []float64) string {
	var b strings.Builder
	for _, x := range samples {
		fmt.Fprintf(&b, "%g\n", x)
	}
	return b.String()
}

// postStream POSTs an NDJSON body and decodes every response line.
func postStream(t *testing.T, url, body string) (*http.Response, []streamEvent) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []streamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, events
}

func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, core.Config{})
	model := testModel(t)
	const hop = 32
	inputs := testInputs(2, 5)
	samples := append(append([]float64{}, inputs[0]...), inputs[1]...)

	resp, events := postStream(t, ts.URL+"/v1/models/demo/stream?hop=32", streamBody(samples))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", got)
	}
	wantPredictions := (len(samples)-testSeriesLen)/hop + 1
	if len(events) != wantPredictions+1 {
		t.Fatalf("got %d lines, want %d predictions + done", len(events), wantPredictions)
	}
	last := events[len(events)-1]
	if !last.Done || last.Samples != len(samples) || last.Predictions != wantPredictions {
		t.Fatalf("terminal line = %+v, want done with %d samples / %d predictions", last, len(samples), wantPredictions)
	}
	// Every prediction line must agree with batch prediction on the
	// materialized window (the stream determinism contract, through HTTP).
	for _, ev := range events[:len(events)-1] {
		if ev.Class == nil || len(ev.Proba) != 2 {
			t.Fatalf("prediction line %+v lacks class/proba", ev)
		}
		window := samples[ev.Sample-testSeriesLen : ev.Sample]
		want, err := model.PredictBatch(context.Background(), [][]float64{window})
		if err != nil {
			t.Fatal(err)
		}
		if *ev.Class != want[0] {
			t.Fatalf("sample %d: streamed class %d, batch %d", ev.Sample, *ev.Class, want[0])
		}
	}
}

// TestStreamEndpointLongDialogue pushes a dialogue whose response far
// exceeds the server's write buffer over a real connection at hop=1.
// This is the regression test for the middleware's ResponseController
// pass-through (statusRecorder.Unwrap): without it, EnableFullDuplex and
// Flush silently fail, the server closes the half-read body once its
// buffered output fills, and the dialogue dies mid-stream with
// "invalid Read on closed Body".
func TestStreamEndpointLongDialogue(t *testing.T) {
	_, ts := newTestServer(t, core.Config{})
	base := testInputs(1, 9)[0]
	samples := make([]float64, 0, 20*len(base))
	for i := 0; i < 20; i++ {
		samples = append(samples, base...)
	}
	resp, events := postStream(t, ts.URL+"/v1/models/demo/stream?hop=1", streamBody(samples))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	for _, ev := range events {
		if ev.Error != "" {
			t.Fatalf("dialogue died mid-stream: %q", ev.Error)
		}
	}
	wantPredictions := len(samples) - testSeriesLen + 1
	last := events[len(events)-1]
	if !last.Done || last.Predictions != wantPredictions || len(events) != wantPredictions+1 {
		t.Fatalf("got %d lines, terminal %+v; want %d predictions then done", len(events), last, wantPredictions)
	}
}

func TestStreamEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, core.Config{})

	// Unknown model → 404 before any streaming.
	resp, _ := postStream(t, ts.URL+"/v1/models/nope/stream", "1\n")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", resp.StatusCode)
	}
	// Bad hop → 400.
	for _, q := range []string{"?hop=x", "?hop=0", "?hop=100000"} {
		resp, _ = postStream(t, ts.URL+"/v1/models/demo/stream"+q, "1\n")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("hop %q status = %d, want 400", q, resp.StatusCode)
		}
	}
	// Malformed sample before any prediction → 400 status.
	resp, _ = postStream(t, ts.URL+"/v1/models/demo/stream", "1\nbananas\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed sample status = %d, want 400", resp.StatusCode)
	}
	// Non-finite sample → 400 with the taxonomy message.
	resp, events := postStream(t, ts.URL+"/v1/models/demo/stream", "1\nNaN\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN sample status = %d, want 400", resp.StatusCode)
	}
	if len(events) == 0 || events[len(events)-1].Error == "" {
		t.Fatalf("NaN sample produced no error line: %+v", events)
	}
	// Malformed sample after a prediction: status already sent, so the
	// error arrives as a terminal NDJSON line.
	samples := testInputs(1, 6)[0]
	body := streamBody(samples) + "not-a-number\n"
	resp, events = postStream(t, ts.URL+"/v1/models/demo/stream", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream error status = %d, want 200 (already streaming)", resp.StatusCode)
	}
	if len(events) < 2 {
		t.Fatalf("got %d lines, want a prediction plus an error line", len(events))
	}
	if last := events[len(events)-1]; last.Error == "" || last.Done {
		t.Fatalf("terminal line = %+v, want error", last)
	}
	// An empty body is a valid (if pointless) dialogue.
	resp, events = postStream(t, ts.URL+"/v1/models/demo/stream", "")
	if resp.StatusCode != http.StatusOK || len(events) != 1 || !events[0].Done {
		t.Fatalf("empty body: status %d events %+v", resp.StatusCode, events)
	}
}

// cancellableBody serves a fixed NDJSON prefix, then blocks until its
// context is cancelled — the shape of a live sensor feed whose client
// disappears mid-dialogue.
type cancellableBody struct {
	ctx    context.Context
	prefix io.Reader
}

func (b *cancellableBody) Read(p []byte) (int, error) {
	n, err := b.prefix.Read(p)
	if n > 0 || err != io.EOF {
		return n, err
	}
	<-b.ctx.Done()
	return 0, b.ctx.Err()
}

// firstLineRecorder is a ResponseRecorder that closes firstLine once the
// handler has written its first complete response line.
type firstLineRecorder struct {
	*httptest.ResponseRecorder
	firstLine chan struct{}
	once      sync.Once
}

func (r *firstLineRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseRecorder.Write(p)
	if bytes.IndexByte(p[:n], '\n') >= 0 {
		r.once.Do(func() { close(r.firstLine) })
	}
	return n, err
}

// TestStreamEndpointCancellation abandons the dialogue mid-stream and
// checks the handler returns promptly instead of blocking on the dead
// connection. It drives ServeHTTP directly so the cancellation point is
// deterministic.
func TestStreamEndpointCancellation(t *testing.T) {
	srv, _ := newTestServer(t, core.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	samples := testInputs(1, 7)[0]
	body := &cancellableBody{ctx: ctx, prefix: strings.NewReader(streamBody(samples))}
	req := httptest.NewRequest(http.MethodPost, "/v1/models/demo/stream?hop=32", body).WithContext(ctx)
	rec := &firstLineRecorder{ResponseRecorder: httptest.NewRecorder(), firstLine: make(chan struct{})}

	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(rec, req)
		close(done)
	}()
	// Wait until the first prediction line is out (the dialogue is live),
	// then vanish.
	select {
	case <-rec.firstLine:
	case <-time.After(30 * time.Second):
		t.Fatal("handler never wrote a response line")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after the request context was cancelled")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream was live before the cancel)", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var last streamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Done {
		t.Fatalf("cancelled dialogue still emitted a done line: %+v", last)
	}
}
