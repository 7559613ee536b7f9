package core

import (
	"io"
	"strconv"

	"mvg/internal/obs"
)

// Metrics is the server's operational counter set, exposed in the
// Prometheus text format on GET /metrics. It declares the mvgserve_*
// families on an obs.Registry and is safe for concurrent use by every
// handler and coalescer. Each Engine builds and owns one.
type Metrics struct {
	reg obs.Registry

	inFlight          *obs.Gauge
	coalescedBatches  *obs.Counter
	coalescedRequests *obs.Counter
	// Overload safety (docs/robustness.md): requests shed by the
	// admission limiter or a stream quota, requests that hit the server's
	// own deadline, and streams evicted by reason.
	shed            *obs.Counter
	requestTimeouts *obs.Counter
	// activeStreams is the engine's one live-stream count: the MaxStreams
	// check, /healthz and the scrape all read it.
	activeStreams *obs.Gauge
	streamEvicted *obs.CounterVec
	requests      *obs.CounterVec
	// Alerting: how many live alerting streams sit in each (trigger,
	// state) cell, and how many transitions each trigger has made into
	// each destination state. Trigger names come from the alert package,
	// which restricts them to a Prometheus-label-safe charset.
	alertState       *obs.GaugeVec
	alertTransitions *obs.CounterVec
	latency          *obs.Histogram
	batch            *obs.Histogram
	flushes          *obs.CounterVec
}

// newMetrics returns a Metrics with latency buckets spanning 100µs–10s and
// batch-size buckets aligned with typical coalescing windows.
func newMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.inFlight = r.Gauge("mvgserve_in_flight_requests", "HTTP requests currently being served.")
	m.coalescedBatches = r.Counter("mvgserve_coalesced_batches_total", "Prediction batches flushed by the coalescer.")
	m.coalescedRequests = r.Counter("mvgserve_coalesced_requests_total", "Single-series requests served through coalesced batches.")
	m.shed = r.Counter("mvgserve_shed_total", "Requests rejected by the admission limiter (429).")
	m.requestTimeouts = r.Counter("mvgserve_request_timeout_total", "Requests that exceeded the server request deadline (503).")
	m.activeStreams = r.Gauge("mvgserve_active_streams", "Live NDJSON stream dialogues.")
	m.streamEvicted = r.CounterVec("mvgserve_stream_evicted_total", "Streams terminated by the server, by reason.", "reason")
	// Pre-seed the known reasons so their series exist (at zero) from the
	// first scrape: monotonicity checks and dashboards need the line
	// present before the first eviction, not after.
	m.streamEvicted.With(EvictIdle)
	m.streamEvicted.With(EvictSlowReader)
	m.requests = r.CounterVec("mvgserve_requests_total", "HTTP requests by route and status code.", "route", "code")
	m.alertState = r.GaugeVec("mvgserve_alert_state", "Live alerting streams in each state, by trigger.", "trigger", "state")
	m.alertTransitions = r.CounterVec("mvgserve_alert_transitions_total", "Alert state transitions, by trigger and destination state.", "trigger", "to")
	m.latency = r.Histogram("mvgserve_request_duration_seconds", "HTTP request latency.",
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)
	m.batch = r.Histogram("mvgserve_batch_size", "Coalesced batch size distribution.", 1, 2, 4, 8, 16, 32, 64, 128, 256)
	m.flushes = r.CounterVec("mvgserve_coalescer_flushes_total", "Coalesced batches flushed, by reason.", "reason")
	for _, reason := range []string{FlushIdle, FlushWindow, FlushFull, FlushClose} {
		m.flushes.With(reason)
	}
	return m
}

// Stream eviction reasons (the label values of
// mvgserve_stream_evicted_total).
const (
	// EvictIdle: the stream sent no sample for the idle deadline.
	EvictIdle = "idle"
	// EvictSlowReader: the client stopped reading and a write deadline
	// expired with the response buffer full.
	EvictSlowReader = "slow_reader"
)

// Coalescer flush reasons (the label values of
// mvgserve_coalescer_flushes_total).
const (
	// FlushIdle: no batch of the model was predicting, either when the
	// request arrived or when the last running batch finished.
	FlushIdle = "idle"
	// FlushWindow: the first request queued behind a busy model waited
	// the coalescing window.
	FlushWindow = "window"
	// FlushFull: MaxBatch requests were pending.
	FlushFull = "full"
	// FlushClose: the coalescer closed with requests pending.
	FlushClose = "close"
)

// Shed counts one request rejected by the admission limiter (429).
func (m *Metrics) Shed() { m.shed.Inc() }

// ShedTotal reports the number of shed requests so far.
func (m *Metrics) ShedTotal() uint64 { return m.shed.Value() }

// RequestTimeout counts one request that hit the server's own deadline
// (503 via -request-timeout).
func (m *Metrics) RequestTimeout() { m.requestTimeouts.Inc() }

// RequestTimeoutTotal reports the number of server-deadline timeouts.
func (m *Metrics) RequestTimeoutTotal() uint64 { return m.requestTimeouts.Value() }

// ActiveStreams reports the number of open stream dialogues.
func (m *Metrics) ActiveStreams() int64 { return m.activeStreams.Value() }

// StreamEvicted counts one stream terminated by the server for reason
// (EvictIdle, EvictSlowReader).
func (m *Metrics) StreamEvicted(reason string) { m.streamEvicted.With(reason).Inc() }

// StreamEvictedTotal reports the eviction count for one reason.
func (m *Metrics) StreamEvictedTotal(reason string) uint64 {
	return m.streamEvicted.With(reason).Value()
}

// AlertStreamStarted records a new alerting stream's trigger entering the
// OK state; call once per trigger when the stream's evaluator is armed.
func (m *Metrics) AlertStreamStarted(trigger string) { m.alertState.With(trigger, "OK").Add(1) }

// AlertStreamEnded removes a finished stream's trigger from the state
// gauge; state is the trigger's final state.
func (m *Metrics) AlertStreamEnded(trigger, state string) { m.alertState.With(trigger, state).Add(-1) }

// AlertTransition moves one trigger between states in the gauge and counts
// the transition by destination.
func (m *Metrics) AlertTransition(trigger, from, to string) {
	m.alertState.With(trigger, from).Add(-1)
	m.alertState.With(trigger, to).Add(1)
	m.alertTransitions.With(trigger, to).Inc()
}

// RequestStarted increments the in-flight gauge and returns a completion
// callback recording the request's route, status code and latency.
func (m *Metrics) RequestStarted() func(route string, code int, seconds float64) {
	m.inFlight.Add(1)
	return func(route string, code int, seconds float64) {
		m.inFlight.Add(-1)
		m.requests.With(route, strconv.Itoa(code)).Inc()
		m.latency.Observe(seconds)
	}
}

// ObserveBatch records one coalesced batch of the given size, flushed for
// reason (FlushIdle, FlushWindow, FlushFull, FlushClose).
func (m *Metrics) ObserveBatch(size int, reason string) {
	m.coalescedBatches.Inc()
	m.coalescedRequests.Add(uint64(size))
	m.batch.Observe(float64(size))
	m.flushes.With(reason).Inc()
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), the format scraped by GET /metrics.
func (m *Metrics) WritePrometheus(w io.Writer) {
	// A failed write means the scraper went away; there is no one left
	// to report it to.
	_ = m.reg.WritePrometheus(w)
}
