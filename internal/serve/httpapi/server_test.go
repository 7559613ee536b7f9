package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mvg/internal/faults"
	"mvg/internal/serve/core"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHandlers drives every endpoint through its status-code matrix.
func TestHandlers(t *testing.T) {
	_, ts := newTestServer(t, core.Config{Window: time.Millisecond})
	single := testInputs(1, 10)[0]
	batch := testInputs(3, 11)
	short := make([]float64, 7)

	cases := []struct {
		name     string
		method   string
		path     string
		body     any // nil = no body; string = raw body
		wantCode int
		contains string
	}{
		{"healthz", "GET", "/healthz", nil, 200, `"status":"ok"`},
		{"models listing", "GET", "/v1/models", nil, 200, `"name":"demo"`},
		{"predict single", "POST", "/v1/models/demo/predict", map[string]any{"series": single}, 200, `"class":`},
		{"predict batch", "POST", "/v1/models/demo/predict", map[string]any{"batch": batch}, 200, `"classes":`},
		{"proba single", "POST", "/v1/models/demo/predict_proba", map[string]any{"series": single}, 200, `"proba":`},
		{"proba batch", "POST", "/v1/models/demo/predict_proba", map[string]any{"batch": batch}, 200, `"probas":`},
		{"unknown model", "POST", "/v1/models/ghost/predict", map[string]any{"series": single}, 404, "unknown model"},
		{"wrong length", "POST", "/v1/models/demo/predict", map[string]any{"series": short}, 400, "model expects"},
		{"both series and batch", "POST", "/v1/models/demo/predict", map[string]any{"series": single, "batch": batch}, 400, "exactly one"},
		{"neither", "POST", "/v1/models/demo/predict", map[string]any{}, 400, "must set"},
		{"empty batch", "POST", "/v1/models/demo/predict", map[string]any{"batch": [][]float64{}}, 400, "at least one"},
		{"unknown field", "POST", "/v1/models/demo/predict", map[string]any{"serie": single}, 400, "invalid JSON"},
		{"invalid JSON", "POST", "/v1/models/demo/predict", "{not json", 400, "invalid JSON"},
		{"GET predict", "GET", "/v1/models/demo/predict", nil, 405, ""},
		{"reload", "POST", "/v1/models/demo/reload", nil, 200, "reloaded"},
		{"reload unknown", "POST", "/v1/models/ghost/reload", nil, 404, "unknown model"},
		{"unrouted path", "GET", "/v2/nope", nil, 404, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			switch b := tc.body.(type) {
			case nil:
			case string:
				body = strings.NewReader(b)
			default:
				raw, err := json.Marshal(b)
				if err != nil {
					t.Fatal(err)
				}
				body = bytes.NewReader(raw)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, tc.wantCode, data)
			}
			if tc.contains != "" && !strings.Contains(string(data), tc.contains) {
				t.Fatalf("body %q does not contain %q", data, tc.contains)
			}
		})
	}
}

// TestPredictMatchesModel: the HTTP path (including coalescing) returns
// exactly what the in-process model returns. Go's JSON encoder emits the
// shortest round-tripping float representation, so bit-identity survives
// the wire.
func TestPredictMatchesModel(t *testing.T) {
	model := testModel(t)
	_, ts := newTestServer(t, core.Config{Window: time.Millisecond})
	inputs := testInputs(4, 12)

	wantProba, err := model.PredictProba(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	wantClass, err := model.PredictBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}

	for i, s := range inputs {
		resp, data := postJSON(t, ts.URL+"/v1/models/demo/predict_proba", map[string]any{"series": s})
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var pr probaResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if !pr.Coalesced {
			t.Error("single predict_proba should report coalesced=true")
		}
		requireSameRow(t, wantProba[i], pr.Proba)
		sum := 0.0
		for _, v := range pr.Proba {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("probabilities sum to %v", sum)
		}

		resp, data = postJSON(t, ts.URL+"/v1/models/demo/predict", map[string]any{"series": s})
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var cr predictResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Class == nil || *cr.Class != wantClass[i] {
			t.Fatalf("class = %v, want %d", cr.Class, wantClass[i])
		}
	}

	// The batch form agrees too.
	resp, data := postJSON(t, ts.URL+"/v1/models/demo/predict", map[string]any{"batch": inputs})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br predictResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Classes) != len(inputs) {
		t.Fatalf("%d classes for %d series", len(br.Classes), len(inputs))
	}
	for i := range br.Classes {
		if br.Classes[i] != wantClass[i] {
			t.Fatalf("batch class %d = %d, want %d", i, br.Classes[i], wantClass[i])
		}
	}
}

// TestConcurrentPredicts hammers the HTTP path from many clients; combined
// with -race this exercises handler + coalescer + registry concurrency.
func TestConcurrentPredicts(t *testing.T) {
	_, ts := newTestServer(t, core.Config{Window: 500 * time.Microsecond, MaxBatch: 8})
	inputs := testInputs(6, 13)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := inputs[g%len(inputs)]
			resp, data := postJSONQuiet(ts.URL+"/v1/models/demo/predict", map[string]any{"series": s})
			if resp == nil {
				errs <- fmt.Errorf("request failed")
				return
			}
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition after real traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, core.Config{Window: time.Millisecond})
	single := testInputs(1, 14)[0]
	postJSON(t, ts.URL+"/v1/models/demo/predict", map[string]any{"series": single})
	get(t, ts.URL+"/healthz")

	resp, data := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		`mvgserve_requests_total{route="predict",code="200"}`,
		`mvgserve_requests_total{route="healthz",code="200"}`,
		"mvgserve_in_flight_requests",
		"mvgserve_request_duration_seconds_bucket",
		"mvgserve_batch_size_count",
		"mvgserve_coalesced_batches_total",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics output missing %q:\n%s", want, data)
		}
	}
}

// TestGracefulShutdown is the SIGTERM drain integration test: requests in
// flight when shutdown starts are answered, requests after are rejected.
func TestGracefulShutdown(t *testing.T) {
	inj := faults.New()
	srv, ts := newTestServer(t, core.Config{Window: time.Hour, MaxBatch: 64, Faults: inj})
	// Hold every coalesced batch until release, so the model stays busy
	// and the later requests queue in the coalescer behind the first.
	// Both cleanups run before the server's Close, which waits for
	// handlers: if the drain leaves some waiting, cancelling the clients
	// frees them, so the test fails instead of hanging in Close.
	release := inj.Block(faults.PointCoalescedBatch)
	t.Cleanup(release)
	clientCtx, cancelClients := context.WithCancel(context.Background())
	t.Cleanup(cancelClients)
	inj.Delay(faults.PointPredict, 0) // count the requests reaching the coalescer
	inputs := testInputs(4, 15)

	var wg sync.WaitGroup
	errs := make(chan error, len(inputs))
	send := func(series []float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(map[string]any{"series": series})
			req, _ := http.NewRequestWithContext(clientCtx, "POST", ts.URL+"/v1/models/demo/predict", bytes.NewReader(raw))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- fmt.Errorf("in-flight request dropped during drain: %v", err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("in-flight request got %d: %s", resp.StatusCode, data)
			}
		}()
	}
	send(inputs[0])
	waitUntil(t, "the first batch to be held", func() bool {
		return inj.Count(faults.PointCoalescedBatch) == 1
	})
	for _, series := range inputs[1:] {
		send(series)
	}
	waitUntil(t, "every request to reach the coalescer", func() bool {
		return inj.Count(faults.PointPredict) == uint64(len(inputs))
	})

	// Mirror cmd/mvgserve's drain order: stop the listener first (waits
	// for active handlers, which are blocked on the coalescer), then close
	// the coalescers. No handler can finish while the batch is held, so
	// the HTTP drain runs out of budget with all of them still waiting.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelHTTP()
	if err := ts.Config.Shutdown(httpCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("http shutdown = %v, want its deadline: handlers are blocked on the held batch", err)
	}
	// The engine drain flushes the queued requests as one batch while the
	// first is still held; releasing the hold lets both finish.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Engine().Shutdown(ctx) }()
	waitUntil(t, "the drain to flush the queued requests", func() bool {
		return inj.Count(faults.PointCoalescedBatch) == 2
	})
	release()
	if err := <-drained; err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	srv.Engine().Metrics().WritePrometheus(&buf)
	for _, want := range []string{
		`mvgserve_coalescer_flushes_total{reason="idle"} 1`,
		`mvgserve_coalescer_flushes_total{reason="close"} 1`,
		"mvgserve_batch_size_sum 4",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}

	// The coalescer is gone: direct predictions now report draining.
	rec := httptest.NewRecorder()
	raw, _ := json.Marshal(map[string]any{"series": inputs[0]})
	req := httptest.NewRequest("POST", "/v1/models/demo/predict", bytes.NewReader(raw))
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict after shutdown = %d, want 503", rec.Code)
	}
}

// TestPanicRecovery: a panicking handler inside the instrument middleware
// is answered with a JSON 500, counted in the per-route metrics, and —
// because the panic is recovered rather than re-thrown — the keep-alive
// connection survives and serves the next request.
func TestPanicRecovery(t *testing.T) {
	srv, _ := newTestServer(t, core.Config{Window: time.Millisecond})
	mux := http.NewServeMux()
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("boom: injected handler panic")
	})
	mux.Handle("/", srv) // everything else is the real server
	ts := httptest.NewServer(srv.instrument(mux))
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/panic")
	if err != nil {
		t.Fatalf("panicking handler broke the connection: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(data), "internal error") {
		t.Fatalf("panic response body = %s, want the opaque internal-error JSON", data)
	}

	// The same pooled connection must serve the next request: trace
	// connection reuse explicitly instead of trusting the status code.
	reused := false
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
	req, _ := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", ts.URL+"/healthz", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d, body %s", resp.StatusCode, data)
	}
	if !reused {
		t.Error("connection was not reused after the recovered panic")
	}

	// The 500 is attributed to the panicking route in the counters. The
	// /panic path is outside the API surface, so it lands on "other".
	var buf bytes.Buffer
	srv.Engine().Metrics().WritePrometheus(&buf)
	if want := `mvgserve_requests_total{route="other",code="500"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q:\n%s", want, buf.String())
	}
}

// TestShutdownContextCancelled: a cancelled drain context surfaces as an
// error instead of hanging.
func TestShutdownContextCancelled(t *testing.T) {
	inj := faults.New()
	srv, ts := newTestServer(t, core.Config{Window: time.Hour, MaxBatch: 64, Faults: inj})
	// Hold the one request's batch so the drain has work it cannot
	// finish, then cancel immediately.
	release := inj.Block(faults.PointCoalescedBatch)
	t.Cleanup(release)
	code := make(chan int, 1)
	go func() {
		resp, _ := postJSONQuiet(ts.URL+"/v1/models/demo/predict", map[string]any{"series": testInputs(1, 16)[0]})
		if resp == nil {
			code <- 0
			return
		}
		code <- resp.StatusCode
	}()
	waitUntil(t, "the batch to be held", func() bool {
		return inj.Count(faults.PointCoalescedBatch) == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Engine().Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown with a held batch = %v, want context canceled", err)
	}
	// Complete the drain so the parked request is answered.
	release()
	if err := srv.Engine().Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if got := <-code; got != http.StatusOK {
		t.Fatalf("parked request got %d, want 200", got)
	}
}
