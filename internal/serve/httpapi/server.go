// Package httpapi is the HTTP codec of the serving layer: the /v1 JSON
// endpoints and the NDJSON /stream dialogue, rendered over a shared
// transport-agnostic core.Engine. Everything response-shaping happens in
// the engine — this package only decodes requests, maps typed errors to
// HTTP statuses through the shared status table, and encodes responses.
// The endpoint contract is documented in docs/serving.md.
package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"mvg/internal/serve/core"
)

// Server is the HTTP serving layer over one core.Engine. It implements
// http.Handler.
type Server struct {
	engine  *core.Engine
	handler http.Handler
}

// NewServer builds the HTTP codec over an engine. Multiple transport
// servers (this one and grpcapi's) may share one engine; they then share
// its registry, coalescers, admission limiter and metrics.
func NewServer(e *core.Engine) *Server {
	s := &Server{engine: e}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/models/{name}/predict", s.admit(s.handlePredict(false)))
	mux.HandleFunc("POST /v1/models/{name}/predict_proba", s.admit(s.handlePredict(true)))
	mux.HandleFunc("POST /v1/models/{name}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/models/{name}/reload", s.handleReload)
	s.handler = s.instrument(mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Engine returns the engine this codec serves.
func (s *Server) Engine() *core.Engine { return s.engine }

// ---- request/response schema ----

// predictRequest is the body of POST /v1/models/{name}/predict and
// /predict_proba. Exactly one of Series (single) or Batch must be set.
type predictRequest struct {
	Series []float64   `json:"series,omitempty"`
	Batch  [][]float64 `json:"batch,omitempty"`
}

type predictResponse struct {
	Model     string `json:"model"`
	Class     *int   `json:"class,omitempty"`
	Classes   []int  `json:"classes,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
}

type probaResponse struct {
	Model     string      `json:"model"`
	Proba     []float64   `json:"proba,omitempty"`
	Probas    [][]float64 `json:"probas,omitempty"`
	Coalesced bool        `json:"coalesced,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError renders err through the shared status table, attaching the
// Retry-After header when the typed error carries a hint.
func writeError(w http.ResponseWriter, err error) {
	if d := core.RetryHint(err); d > 0 {
		w.Header().Set("Retry-After", core.RetryAfterSeconds(d))
	}
	writeJSON(w, core.StatusOf(err).HTTP, errorResponse{Error: err.Error()})
}

// parsePredictRequest decodes a prediction body, returning the series to
// predict and whether the request was the single-series form.
func parsePredictRequest(r *http.Request) (series [][]float64, single bool, err error) {
	var req predictRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, false, core.Errorf(core.StatusBadRequest, "invalid JSON body: %v", err)
	}
	switch {
	case req.Series != nil && req.Batch != nil:
		return nil, false, core.Errorf(core.StatusBadRequest, `body must set exactly one of "series" or "batch"`)
	case req.Series != nil:
		return [][]float64{req.Series}, true, nil
	case req.Batch != nil:
		return req.Batch, false, nil
	}
	return nil, false, core.Errorf(core.StatusBadRequest, `body must set "series" or "batch"`)
}

// admit runs a predict handler inside the engine's admitted scope: the
// request deadline and an admission slot, or a 429 + Retry-After shed
// before the body is read. Whatever error the handler returns — or the
// scope maps, such as the server's own deadline (503) — is rendered here.
func (s *Server) admit(next func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := s.engine.Admitted(r.Context(), func(ctx context.Context) error {
			return next(w, r.WithContext(ctx))
		})
		if err != nil {
			writeError(w, err)
		}
	}
}

// ---- handlers ----

// handlePredict serves /predict (proba false) and /predict_proba (proba
// true); the two differ only in the response shape.
func (s *Server) handlePredict(proba bool) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		name := r.PathValue("name")
		m, err := s.engine.Model(name)
		if err != nil {
			return err
		}
		series, single, err := parsePredictRequest(r)
		if err != nil {
			return err
		}
		rows, coalesced, err := s.engine.Predict(r.Context(), name, m, series, single)
		if err != nil {
			return err
		}
		switch {
		case proba && single:
			writeJSON(w, http.StatusOK, probaResponse{Model: name, Proba: rows[0], Coalesced: coalesced})
		case proba:
			writeJSON(w, http.StatusOK, probaResponse{Model: name, Probas: rows})
		case single:
			class := core.Argmax(rows[0])
			writeJSON(w, http.StatusOK, predictResponse{Model: name, Class: &class, Coalesced: coalesced})
		default:
			classes := make([]int, len(rows))
			for i, row := range rows {
				classes[i] = core.Argmax(row)
			}
			writeJSON(w, http.StatusOK, predictResponse{Model: name, Classes: classes})
		}
		return nil
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.engine.Reload(name); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"model": name, "status": "reloaded"})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.engine.Registry().List()})
}

// handleHealthz renders the engine's readiness snapshot; a draining
// server answers 503 so health checks fail fast during shutdown while
// in-flight work finishes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.engine.HealthSnapshot()
	code := http.StatusOK
	if !h.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.engine.Metrics().WritePrometheus(w)
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush/EnableFullDuplex through the middleware wrapper — without it the
// /stream endpoint's per-line flushing and full-duplex opt-in silently
// degrade to ErrNotSupported and long dialogues die once the server's
// write buffer fills (pinned by TestStreamEndpointLongDialogue).
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// instrument wraps the mux with panic recovery and metrics: the in-flight
// gauge, per-route/status counters and the latency histogram.
func (s *Server) instrument(next http.Handler) http.Handler {
	logger := s.engine.Logger()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		finish := s.engine.Metrics().RequestStarted()
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		route := routeLabel(r)
		defer func() {
			if rec := recover(); rec != nil {
				if logger != nil {
					logger.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				}
				writeJSON(sr, http.StatusInternalServerError, errorResponse{Error: "internal error"})
			}
			finish(route, sr.code, time.Since(start).Seconds())
			if logger != nil && sr.code >= 400 {
				logger.Printf("%s %s -> %d (%.1fms)", r.Method, r.URL.Path, sr.code, float64(time.Since(start).Microseconds())/1000)
			}
		}()
		next.ServeHTTP(sr, r)
	})
}

// routeLabel collapses request paths onto low-cardinality metric labels so
// model names don't explode the per-route counter space.
func routeLabel(r *http.Request) string {
	switch {
	case r.URL.Path == "/healthz":
		return "healthz"
	case r.URL.Path == "/metrics":
		return "metrics"
	case r.URL.Path == "/v1/models":
		return "models"
	case strings.HasSuffix(r.URL.Path, "/predict"):
		return "predict"
	case strings.HasSuffix(r.URL.Path, "/predict_proba"):
		return "predict_proba"
	case strings.HasSuffix(r.URL.Path, "/stream"):
		return "stream"
	case strings.HasSuffix(r.URL.Path, "/reload"):
		return "reload"
	}
	return "other"
}
