package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"mvg"
	"mvg/internal/faults"
	"mvg/internal/ml"
)

// Config configures an Engine.
type Config struct {
	// Registry holds the models to serve (required).
	Registry *Registry
	// Window and MaxBatch tune the per-model request coalescer (zero
	// values select DefaultWindow / DefaultMaxBatch).
	Window   time.Duration
	MaxBatch int
	// Logger receives one line per failed request; nil disables logging.
	Logger *log.Logger
	// AlertSink receives the FIRING/RESOLVED events of every alerting
	// stream dialogue. Nil disables delivery; transitions are still
	// emitted on the dialogue and counted in Metrics. The engine does not
	// close the sink — its owner (mvgserve) does, after drain.
	AlertSink mvg.AlertSink

	// ---- overload safety (docs/robustness.md) ----

	// MaxInFlight bounds concurrently executing predict requests; once
	// full, up to MaxQueue more wait (bounded by their deadline) and
	// anything beyond that is shed with 429 + Retry-After. Zero disables
	// admission control (tests, embedded use); mvgserve always sets it.
	MaxInFlight int
	// MaxQueue bounds the admission wait queue (see MaxInFlight).
	MaxQueue int
	// RequestTimeout is the server-side deadline per predict request,
	// queue wait included; expiry maps to 503 + Retry-After and the
	// mvgserve_request_timeout_total counter. Zero disables.
	RequestTimeout time.Duration
	// RetryAfter is the Retry-After hint on 429/503 responses (default
	// DefaultRetryAfter).
	RetryAfter time.Duration

	// MaxStreams / MaxStreamsPerTenant bound concurrently open stream
	// dialogues, globally and per tenant (TenantKey). Zero selects
	// DefaultMaxStreams / DefaultMaxStreamsPerTenant; negative means
	// unlimited. Rejections are 429 + Retry-After.
	MaxStreams          int
	MaxStreamsPerTenant int
	// StreamIdleTimeout evicts a stream that delivers no sample for this
	// long (terminal error event, mvgserve_stream_evicted_total
	// {reason="idle"}). Zero selects DefaultStreamIdleTimeout; negative
	// disables idle eviction.
	StreamIdleTimeout time.Duration
	// StreamWriteTimeout bounds each response write; a client that stops
	// reading until the write buffer fills is evicted
	// (reason="slow_reader"). Zero selects DefaultStreamWriteTimeout;
	// negative disables write deadlines.
	StreamWriteTimeout time.Duration

	// Faults is the fault-injection surface consulted on the predict
	// paths (internal/faults); nil — the production value — disarms every
	// point at the cost of a pointer comparison.
	Faults *faults.Injector
}

// Stream robustness defaults used when the Config fields are zero.
const (
	DefaultMaxStreams          = 1024
	DefaultMaxStreamsPerTenant = 64
	DefaultStreamIdleTimeout   = 5 * time.Minute
	DefaultStreamWriteTimeout  = 10 * time.Second
)

// Engine is the transport-agnostic serving engine: it resolves models
// from a registry, funnels single-series predictions through one request
// coalescer per model, runs every predict request in one admitted scope
// (deadline, admission, timeout mapping), validates and answers it
// (Predict), runs stream dialogues under write deadlines with slow-reader
// eviction, enforces stream quotas, and owns its metrics. The HTTP and
// gRPC codecs only decode, call the engine and encode, so a prediction's
// bytes cannot depend on which transport asked.
type Engine struct {
	registry  *Registry
	metrics   *Metrics
	window    time.Duration
	maxBatch  int
	logger    *log.Logger
	alertSink mvg.AlertSink

	limiter        *limiter
	requestTimeout time.Duration
	retryAfter     time.Duration
	maxStreams     int
	maxPerTenant   int
	streamIdle     time.Duration
	streamWrite    time.Duration
	faults         *faults.Injector

	mu         sync.Mutex
	coalescers map[string]*Coalescer
	draining   bool
	// Stream slots: open dialogues per tenant, and the drain broadcast
	// every Dialogue.Done returns. The global count is
	// metrics.activeStreams, changed only under mu.
	tenantStreams  map[string]int
	streamDrain    chan struct{}
	streamsDrained bool
}

// NewEngine builds an Engine from cfg. The returned engine is live: its
// coalescers start on first use and run until Shutdown.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Registry == nil {
		return nil, errors.New("serve: Config.Registry is required")
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.MaxStreams == 0 {
		cfg.MaxStreams = DefaultMaxStreams
	}
	if cfg.MaxStreamsPerTenant == 0 {
		cfg.MaxStreamsPerTenant = DefaultMaxStreamsPerTenant
	}
	if cfg.StreamIdleTimeout == 0 {
		cfg.StreamIdleTimeout = DefaultStreamIdleTimeout
	}
	if cfg.StreamWriteTimeout == 0 {
		cfg.StreamWriteTimeout = DefaultStreamWriteTimeout
	}
	return &Engine{
		registry:       cfg.Registry,
		metrics:        newMetrics(),
		window:         cfg.Window,
		maxBatch:       cfg.MaxBatch,
		logger:         cfg.Logger,
		alertSink:      cfg.AlertSink,
		limiter:        newLimiter(cfg.MaxInFlight, cfg.MaxQueue),
		requestTimeout: cfg.RequestTimeout,
		retryAfter:     cfg.RetryAfter,
		maxStreams:     cfg.MaxStreams,
		maxPerTenant:   cfg.MaxStreamsPerTenant,
		streamIdle:     cfg.StreamIdleTimeout,
		streamWrite:    cfg.StreamWriteTimeout,
		faults:         cfg.Faults,
		coalescers:     make(map[string]*Coalescer),
		tenantStreams:  make(map[string]int),
		streamDrain:    make(chan struct{}),
	}, nil
}

// Metrics returns the engine's metrics (shared across transports).
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Registry returns the engine's model registry.
func (e *Engine) Registry() *Registry { return e.registry }

// Logger returns the engine's logger; may be nil.
func (e *Engine) Logger() *log.Logger { return e.logger }

// RetryAfter returns the configured retry hint for shed/timeout responses.
func (e *Engine) RetryAfter() time.Duration { return e.retryAfter }

// DrainStreams asks every live stream dialogue to finish with a done
// event and rejects new streams with 503/UNAVAILABLE. mvgserve registers
// it via http.Server.RegisterOnShutdown so streams start draining the
// moment SIGTERM arrives, instead of pinning the HTTP drain until its
// timeout. Open dialogues stay counted until they close. Idempotent;
// Shutdown also calls it.
func (e *Engine) DrainStreams() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.streamsDrained {
		e.streamsDrained = true
		close(e.streamDrain)
	}
}

// claimStream takes a stream slot for tenant. It checks the drain, then
// the global ceiling, then the tenant quota, so a full server gives every
// tenant the same answer. Draining is a 503; a limit or quota rejection
// is a 429 counted with the predict sheds. The texts reach clients in
// response bodies and gRPC status messages.
func (e *Engine) claimStream(tenant string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var reason string
	switch open, mine := e.metrics.activeStreams.Value(), e.tenantStreams[tenant]; {
	case e.streamsDrained:
		return Errorf(StatusUnavailable, "session: server draining")
	case e.maxStreams > 0 && open >= int64(e.maxStreams):
		reason = fmt.Sprintf("session: server stream limit reached (%d open)", open)
	case e.maxPerTenant > 0 && mine >= e.maxPerTenant:
		reason = fmt.Sprintf("session: tenant stream quota reached (tenant %q has %d open)", tenant, mine)
	default:
		e.tenantStreams[tenant]++
		e.metrics.activeStreams.Add(1)
		return nil
	}
	e.metrics.Shed()
	serr := Errorf(StatusShed, "%s: try again in %v", reason, e.retryAfter)
	serr.RetryAfter = e.retryAfter
	return serr
}

// releaseStream returns a slot taken by claimStream.
func (e *Engine) releaseStream(tenant string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tenantStreams[tenant]--; e.tenantStreams[tenant] <= 0 {
		delete(e.tenantStreams, tenant)
	}
	e.metrics.activeStreams.Add(-1)
}

// Shutdown drains the engine: new predictions are rejected with
// 503/UNAVAILABLE and every coalescer is closed, which blocks until all
// accepted requests have received results. Call it after the transport
// servers have stopped accepting connections, with ctx bounding the
// drain.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	e.draining = true
	coalescers := make([]*Coalescer, 0, len(e.coalescers))
	for _, c := range e.coalescers {
		coalescers = append(coalescers, c)
	}
	e.mu.Unlock()
	// Tell every live dialogue to finish (they close with a done event);
	// new streams are rejected from here on.
	e.DrainStreams()

	done := make(chan struct{})
	go func() {
		for _, c := range coalescers {
			c.Close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// coalescer returns (starting if needed) the coalescer for a model name.
// It returns nil when the engine is draining.
func (e *Engine) coalescer(name string) *Coalescer {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return nil
	}
	c, ok := e.coalescers[name]
	if !ok {
		c = NewCoalescer(func() (*mvg.Model, error) {
			if err := e.faults.Fire(context.Background(), faults.PointCoalescedBatch); err != nil {
				return nil, err
			}
			m, ok := e.registry.Get(name)
			if !ok || m == nil {
				return nil, fmt.Errorf("serve: unknown model %q", name)
			}
			return m, nil
		}, CoalescerConfig{
			Window:   e.window,
			MaxBatch: e.maxBatch,
			Observe:  e.metrics.ObserveBatch,
		})
		e.coalescers[name] = c
	}
	return c
}

// ---- admission ----

// Admitted runs fn as one predict request, the scope both codecs run
// their predict handlers in. ctx gains the request timeout, whose cause
// errRequestDeadline tells the server's deadline from the client's; the
// request then claims an admission slot, queueing until that deadline. A
// shed is counted and returned as a typed 429 with the retry hint, and fn
// does not run. Otherwise fn runs on the deadline context and the slot is
// released by defer, so a panicking fn frees it too. A context error
// caused by the engine's deadline, from the queue or from fn, becomes a
// counted 503 with the retry hint; every other error passes through.
func (e *Engine) Admitted(ctx context.Context, fn func(context.Context) error) error {
	if e.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, e.requestTimeout, errRequestDeadline)
		defer cancel()
	}
	release, err := e.limiter.acquire(ctx)
	if errors.Is(err, ErrShed) {
		e.metrics.Shed()
		serr := Errorf(StatusShed, "%v: try again in %v", ErrShed, e.retryAfter)
		serr.RetryAfter = e.retryAfter
		return serr
	}
	if err == nil {
		defer release()
		err = fn(ctx)
	}
	if (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) &&
		errors.Is(context.Cause(ctx), errRequestDeadline) {
		e.metrics.RequestTimeout()
		serr := Errorf(StatusUnavailable, "%s", errRequestDeadline.Error())
		serr.RetryAfter = e.retryAfter
		return serr
	}
	return err
}

// ---- predict ----

// Model resolves a registry name, or returns a typed not-found error.
func (e *Engine) Model(name string) (*mvg.Model, error) {
	m, ok := e.registry.Get(name)
	if !ok || m == nil {
		return nil, Errorf(StatusNotFound, "unknown model %q", name)
	}
	return m, nil
}

// Predict answers one predict request against m (resolved by Model for
// name) with one probability row per series. An empty batch or a series
// of the wrong length is a typed bad request naming the first offender.
// A single request (series holds one series) goes through the model's
// coalescer, which re-batches deterministically, and reports coalesced;
// a draining engine answers ErrCoalescerClosed. A batch runs directly on
// the model. Argmax of each row is the class Model.PredictBatch returns.
func (e *Engine) Predict(ctx context.Context, name string, m *mvg.Model, series [][]float64, single bool) (proba [][]float64, coalesced bool, err error) {
	if len(series) == 0 {
		return nil, false, Errorf(StatusBadRequest, `"batch" must contain at least one series`)
	}
	want := m.SeriesLen()
	for i, s := range series {
		if len(s) != want {
			return nil, false, Errorf(StatusBadRequest,
				"series %d has %d points, model expects %d", i, len(s), want)
		}
	}
	if !single {
		if err := e.faults.Fire(ctx, faults.PointBatchPredict); err != nil {
			return nil, false, err
		}
		proba, err = m.PredictProba(ctx, series)
		return proba, false, err
	}
	if err := e.faults.Fire(ctx, faults.PointPredict); err != nil {
		return nil, false, err
	}
	c := e.coalescer(name)
	if c == nil {
		return nil, false, ErrCoalescerClosed
	}
	row, err := c.Predict(ctx, series[0])
	if err != nil {
		return nil, false, err
	}
	return [][]float64{row}, true, nil
}

// Reload re-reads a model's backing file, mapping failures onto the
// status table (unknown name → not found, load failure → internal).
func (e *Engine) Reload(name string) error {
	if err := e.registry.Reload(name); err != nil {
		st := StatusInternal
		if _, ok := e.registry.Get(name); !ok {
			st = StatusNotFound
		}
		return Errorf(st, "%v", err)
	}
	return nil
}

// Argmax returns the index of the largest probability — the same
// tie-breaking (first maximum wins) as ml.Predict, so class responses
// agree with Model.PredictBatch.
func Argmax(proba []float64) int { return ml.ArgMax(proba) }

// ---- health ----

// Health is the readiness snapshot behind GET /healthz and the gRPC
// Health rpc: liveness plus the dimensions a fronting proxy needs to
// route meaningfully — loaded-model count, current shed state of the
// admission limiter, queue depth, and live stream count. The JSON tags
// are the /healthz wire contract.
type Health struct {
	Status      string            `json:"status"`
	Models      int               `json:"models"`
	Ready       bool              `json:"ready"`
	Shedding    bool              `json:"shedding"`
	InFlight    int               `json:"in_flight"`
	QueueDepth  int               `json:"queue_depth"`
	Streams     int               `json:"streams"`
	ShedTotal   uint64            `json:"shed_total"`
	EvictTotals map[string]uint64 `json:"evict_totals"`
}

// HealthSnapshot reports the engine's current readiness. A draining
// engine reports Ready=false and Status "draining"; transports answer
// 503 / UNAVAILABLE-adjacent so fleet health checks fail fast during
// shutdown while in-flight work finishes.
func (e *Engine) HealthSnapshot() Health {
	e.mu.Lock()
	draining := e.draining
	e.mu.Unlock()
	inFlight, queued := e.limiter.depth()
	h := Health{
		Status:     "ok",
		Models:     len(e.registry.Names()),
		Ready:      !draining,
		Shedding:   e.limiter.saturated(),
		InFlight:   inFlight,
		QueueDepth: queued,
		Streams:    int(e.metrics.ActiveStreams()),
		ShedTotal:  e.metrics.ShedTotal(),
		EvictTotals: map[string]uint64{
			EvictIdle:       e.metrics.StreamEvictedTotal(EvictIdle),
			EvictSlowReader: e.metrics.StreamEvictedTotal(EvictSlowReader),
		},
	}
	if draining {
		h.Status = "draining"
	}
	return h
}
