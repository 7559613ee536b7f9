package proxy

import (
	"io"
	"strconv"

	"mvg/internal/obs"
)

// Metrics is mvgproxy's own counter set, exposed on the proxy's
// /metrics endpoint — distinct from the mvgserve_* families the
// replicas expose, so fleet-level retry and shed behaviour is observable
// without scraping every backend.
type Metrics struct {
	reg       obs.Registry
	requests  *obs.CounterVec
	retries   *obs.Counter
	shed      *obs.Counter
	backendUp *obs.GaugeVec
}

func newMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.requests = r.CounterVec("mvgproxy_requests_total", "Proxied requests by client-visible status code.", "code")
	m.retries = r.Counter("mvgproxy_retries_total", "Idempotent requests retried on another replica after a dead or draining shard.")
	m.shed = r.Counter("mvgproxy_shed_total", "Requests rejected because no healthy backend could serve them.")
	m.backendUp = r.GaugeVec("mvgproxy_backend_up", "Last known health of each backend (1 ready, 0 down or draining).", "backend")
	return m
}

// Request records one proxied request by the status code the client saw.
func (m *Metrics) Request(code int) { m.requests.With(strconv.Itoa(code)).Inc() }

// Retry records one failover retry of an idempotent request.
func (m *Metrics) Retry() { m.retries.Inc() }

// RetriesTotal reports the failover retry count.
func (m *Metrics) RetriesTotal() uint64 { return m.retries.Value() }

// Shed records one request rejected because no healthy backend could
// serve it.
func (m *Metrics) Shed() { m.shed.Inc() }

// ShedTotal reports the no-healthy-backend rejection count.
func (m *Metrics) ShedTotal() uint64 { return m.shed.Value() }

// SetBackendUp records the health state of one backend.
func (m *Metrics) SetBackendUp(name string, up bool) {
	var v int64
	if up {
		v = 1
	}
	m.backendUp.With(name).Set(v)
}

// WritePrometheus renders the proxy metrics in the Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	// A failed write means the scraper went away; there is no one left
	// to report it to.
	_ = m.reg.WritePrometheus(w)
}
