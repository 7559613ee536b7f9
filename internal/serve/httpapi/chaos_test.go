package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mvg/internal/serve/core"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	alertwebhook "mvg/internal/alert/webhook"
	"mvg/internal/faults"
)

// promValue extracts one sample value from a Prometheus text exposition,
// matching the full series name (labels included). Returns ok=false when
// the series is absent.
func promValue(data []byte, series string) (float64, bool) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, found := strings.CutPrefix(line, series)
		if !found || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// chaosResult is one client-observed request outcome.
type chaosResult struct {
	kind    string // "predict", "proba", "batch"
	input   int    // index into the reference inputs (single forms)
	code    int
	latency time.Duration
	proba   []float64 // decoded row for 200 single proba responses
	body    string
}

// TestChaosMixedTraffic is the fault-injection acceptance test: mixed
// predict/stream/alert traffic against a tightly-limited server while
// faults come and go (prediction delays, transient failures, stream stalls,
// a flaky webhook receiver). Run under -race. Invariants checked:
//
//   - every request completes, is shed (429), or times out (503) — nothing
//     hangs past the deadline plus slack;
//   - admitted single predict_proba responses are byte-identical to the
//     quiet model's output, faults or not;
//   - the shed / request-timeout counters match what clients observed, and
//     every counter scraped during the storm is monotonic;
//   - no goroutine outlives the storm (leak gate).
func TestChaosMixedTraffic(t *testing.T) {
	before := runtime.NumGoroutine()
	errBoom := errors.New("chaos: injected prediction failure")

	func() {
		inj := faults.New()
		hookInj := faults.New()

		// A webhook receiver with injectable outages: delivery goes through
		// the same harness as the prediction path.
		hookSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if err := hookInj.Fire(r.Context(), "chaos.webhook"); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusOK)
		}))
		defer hookSrv.Close()
		hook, err := alertwebhook.New(alertwebhook.Config{
			URL:     hookSrv.URL,
			Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}

		const requestTimeout = 2 * time.Second
		srv, ts := newTestServer(t, core.Config{
			Window:              500 * time.Microsecond,
			MaxBatch:            8,
			MaxInFlight:         4,
			MaxQueue:            8,
			RequestTimeout:      requestTimeout,
			MaxStreams:          16,
			MaxStreamsPerTenant: 8,
			StreamIdleTimeout:   500 * time.Millisecond,
			Faults:              inj,
			AlertSink:           hook,
		})

		// Quiet reference output, computed before any fault is armed.
		model := testModel(t)
		inputs := testInputs(6, 40)
		wantProba, err := model.PredictProba(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}

		// Metrics poller: scrape throughout the storm and flag any counter
		// decrease.
		pollStop := make(chan struct{})
		pollDone := make(chan struct{})
		var monotonicViolation error
		go func() {
			defer close(pollDone)
			series := []string{
				"mvgserve_shed_total",
				"mvgserve_request_timeout_total",
				`mvgserve_stream_evicted_total{reason="idle"}`,
				`mvgserve_stream_evicted_total{reason="slow_reader"}`,
			}
			last := make(map[string]float64)
			for {
				select {
				case <-pollStop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					continue
				}
				data := make([]byte, 0, 4096)
				buf := make([]byte, 4096)
				for {
					n, err := resp.Body.Read(buf)
					data = append(data, buf[:n]...)
					if err != nil {
						break
					}
				}
				resp.Body.Close()
				for _, s := range series {
					v, ok := promValue(data, s)
					if !ok {
						if monotonicViolation == nil {
							monotonicViolation = fmt.Errorf("series %s disappeared mid-storm", s)
						}
						continue
					}
					if v < last[s] && monotonicViolation == nil {
						monotonicViolation = fmt.Errorf("counter %s went backwards: %v -> %v", s, last[s], v)
					}
					last[s] = v
				}
			}
		}()

		// Fault schedule: overlapping delay / transient-failure / recovery
		// windows across all three prediction points plus the webhook.
		faultsDone := make(chan struct{})
		go func() {
			defer close(faultsDone)
			hookInj.FailN("chaos.webhook", 4, errBoom) // receiver down, then recovers
			inj.Delay(faults.PointPredict, 3*time.Millisecond)
			time.Sleep(40 * time.Millisecond)
			inj.FailN(faults.PointPredict, 5, errBoom)
			inj.Delay(faults.PointBatchPredict, 2*time.Millisecond)
			time.Sleep(40 * time.Millisecond)
			inj.Clear(faults.PointPredict)
			inj.FailN(faults.PointStreamPredict, 3, errBoom)
			time.Sleep(40 * time.Millisecond)
			inj.Reset()
		}()

		var (
			mu      sync.Mutex
			results []chaosResult
		)
		record := func(res chaosResult) {
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}

		var wg sync.WaitGroup

		// Predict traffic: single class, single proba, and batch proba.
		const predictWorkers, perWorker = 6, 12
		for g := 0; g < predictWorkers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					idx := (g + i) % len(inputs)
					start := time.Now()
					var res chaosResult
					switch i % 3 {
					case 0:
						resp, data := postJSONQuiet(ts.URL+"/v1/models/demo/predict", map[string]any{"series": inputs[idx]})
						if resp == nil {
							continue
						}
						res = chaosResult{kind: "predict", input: idx, code: resp.StatusCode, body: string(data)}
					case 1:
						resp, data := postJSONQuiet(ts.URL+"/v1/models/demo/predict_proba", map[string]any{"series": inputs[idx]})
						if resp == nil {
							continue
						}
						res = chaosResult{kind: "proba", input: idx, code: resp.StatusCode, body: string(data)}
						if resp.StatusCode == http.StatusOK {
							var pr probaResponse
							if err := json.Unmarshal(data, &pr); err == nil {
								res.proba = pr.Proba
							}
						}
					case 2:
						resp, data := postJSONQuiet(ts.URL+"/v1/models/demo/predict_proba", map[string]any{"batch": inputs[:3]})
						if resp == nil {
							continue
						}
						res = chaosResult{kind: "batch", code: resp.StatusCode, body: string(data)}
					}
					res.latency = time.Since(start)
					record(res)
				}
			}()
		}

		// Stream traffic: complete alerting dialogues whose events hit the
		// flaky webhook, plus one client that goes idle and gets evicted.
		streamSamples := append(append([]float64{}, inputs[0]...), inputs[1]...)
		for g := 0; g < 3; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				url := fmt.Sprintf("%s/v1/models/demo/stream?hop=32&tenant=chaos%d&alert=kind=flip", ts.URL, g)
				resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(streamBody(streamSamples)))
				if err != nil {
					return
				}
				data := new(strings.Builder)
				buf := make([]byte, 4096)
				for {
					n, err := resp.Body.Read(buf)
					data.Write(buf[:n])
					if err != nil {
						break
					}
				}
				resp.Body.Close()
				record(chaosResult{kind: "stream", code: resp.StatusCode, body: data.String()})
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One sample short of a window: the idler never reaches a
			// prediction, so no fault in the schedule can end it first
			// and only the idle deadline does.
			held := openStream(t, ts.URL+"/v1/models/demo/stream?tenant=idler", inputs[2][:testSeriesLen-1])
			held.waitEOF() // the idle deadline ends the dialogue for us
			held.close()
		}()

		// Everything must finish within the deadline envelope; a hang here
		// is exactly the bug this suite exists to catch.
		allDone := make(chan struct{})
		go func() { wg.Wait(); close(allDone) }()
		select {
		case <-allDone:
		case <-time.After(60 * time.Second):
			t.Fatal("chaos traffic did not complete: a request or stream is stuck")
		}
		<-faultsDone
		close(pollStop)
		<-pollDone

		// Per-request invariants.
		var sheds429, timeouts503 uint64
		for _, res := range results {
			switch res.code {
			case http.StatusOK, http.StatusInternalServerError:
			case http.StatusTooManyRequests:
				sheds429++
			case http.StatusServiceUnavailable:
				if !strings.Contains(res.body, "deadline") {
					t.Errorf("unexpected 503 outside the deadline path: %s", res.body)
				}
				timeouts503++
			default:
				t.Errorf("unexpected status %d for %s: %s", res.code, res.kind, res.body)
			}
			if res.kind != "stream" && res.latency > requestTimeout+3*time.Second {
				t.Errorf("%s request took %v, deadline is %v", res.kind, res.latency, requestTimeout)
			}
			// Determinism under chaos: an admitted proba answer is the quiet
			// model's answer, bit for bit.
			if res.kind == "proba" && res.code == http.StatusOK {
				requireSameRow(t, wantProba[res.input], res.proba)
			}
		}

		if monotonicViolation != nil {
			t.Error(monotonicViolation)
		}
		if got := srv.Engine().Metrics().ShedTotal(); got != sheds429 {
			t.Errorf("shed_total = %d, but clients observed %d 429s", got, sheds429)
		}
		if got := srv.Engine().Metrics().RequestTimeoutTotal(); got != timeouts503 {
			t.Errorf("request_timeout_total = %d, but clients observed %d deadline 503s", got, timeouts503)
		}
		if got := srv.Engine().Metrics().StreamEvictedTotal(core.EvictIdle); got < 1 {
			t.Errorf("stream_evicted_total{idle} = %d, want >= 1 (the idler)", got)
		}

		// Final exposition agrees with the in-process counters.
		resp, data := get(t, ts.URL+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("final metrics scrape: %d", resp.StatusCode)
		}
		if v, ok := promValue(data, "mvgserve_shed_total"); !ok || uint64(v) != sheds429 {
			t.Errorf("exposed shed_total = %v (ok=%v), want %d", v, ok, sheds429)
		}
		if v, ok := promValue(data, "mvgserve_request_timeout_total"); !ok || uint64(v) != timeouts503 {
			t.Errorf("exposed request_timeout_total = %v (ok=%v), want %d", v, ok, timeouts503)
		}

		// Orderly teardown, then the leak gate outside this closure.
		ts.Close()
		if err := srv.Engine().Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := hook.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	waitUntil(t, "goroutines to drain after the storm", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestChaosInjectedStreamFault: a mid-dialogue prediction failure surfaces
// as a terminal NDJSON error line (headers are long gone), the session is
// released, and the next dialogue works — transient faults don't poison
// the server.
func TestChaosInjectedStreamFault(t *testing.T) {
	inj := faults.New()
	errBoom := errors.New("chaos: injected stream failure")
	srv, ts := newTestServer(t, core.Config{Faults: inj})
	samples := append(append([]float64{}, testInputs(1, 41)[0]...), testInputs(1, 42)[0]...)

	// First prediction succeeds, second hits the fault.
	inj.Delay(faults.PointStreamPredict, 0)
	resp, events := postStream(t, ts.URL+"/v1/models/demo/stream?hop=32", streamBody(samples))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean stream status = %d", resp.StatusCode)
	}
	clean := len(events)

	inj.Reset()
	inj.FailN(faults.PointStreamPredict, 1, errBoom)
	// hop=32 yields several predictions; the first Fire fails, so the error
	// line is the first and only output after the 200 header... unless the
	// failure happens before any write, in which case the status itself
	// reports it. Either way the dialogue terminates cleanly.
	resp, events = postStream(t, ts.URL+"/v1/models/demo/stream?hop=32", streamBody(samples))
	last := events[len(events)-1]
	if resp.StatusCode == http.StatusOK {
		if last.Error == "" && !last.Done {
			t.Fatalf("faulted stream ended without error or done line: %+v", last)
		}
	} else if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted stream status = %d, want 200 or 500", resp.StatusCode)
	}

	// The fault is spent: the next dialogue is clean again.
	inj.Reset()
	resp, events = postStream(t, ts.URL+"/v1/models/demo/stream?hop=32", streamBody(samples))
	if resp.StatusCode != http.StatusOK || len(events) != clean {
		t.Fatalf("post-fault stream: status %d, %d events (want 200, %d)", resp.StatusCode, len(events), clean)
	}
	waitUntil(t, "session release", func() bool { return sessionsActive(srv) == 0 })
}
