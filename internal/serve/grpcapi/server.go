// Package grpcapi is the gRPC codec of the serving layer: the mvg.v1.Mvg
// service (api/proto/mvg.proto) rendered over the same transport-agnostic
// core.Engine as the HTTP codec. Both transports share one engine —
// registry, coalescers, admission limiter, stream sessions and metrics —
// so a prediction's numeric payload is bit-identical regardless of how
// the request arrived, and a shed on one transport is visible on the
// other's /healthz. Errors map through the shared status table
// (docs/serving.md#status-mapping). The runtime underneath is
// internal/grpcx (std-lib h2c, no external gRPC dependency).
package grpcapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sort"
	"time"

	"mvg/api/mvgpb"
	"mvg/internal/grpcx"
	"mvg/internal/serve/core"
)

// Server owns the registered mvg.v1.Mvg service. Serve it over an h2c
// http.Server (grpcx.NewH2CServer); it implements http.Handler.
type Server struct {
	engine *core.Engine
	rpc    *grpcx.Server
}

// NewServer builds the gRPC codec over an engine (typically the same
// engine an httpapi.Server is using).
func NewServer(e *core.Engine) *Server {
	s := &Server{engine: e, rpc: grpcx.NewServer()}
	s.rpc.Unary(mvgpb.MvgMethodPredict,
		func() grpcx.Message { return new(mvgpb.PredictRequest) }, s.admitted(s.predict))
	s.rpc.Unary(mvgpb.MvgMethodPredictProba,
		func() grpcx.Message { return new(mvgpb.PredictRequest) }, s.admitted(s.predictProba))
	s.rpc.Unary(mvgpb.MvgMethodPredictBatch,
		func() grpcx.Message { return new(mvgpb.PredictBatchRequest) }, s.admitted(s.predictBatch))
	s.rpc.Unary(mvgpb.MvgMethodListModels,
		func() grpcx.Message { return new(mvgpb.ListModelsRequest) }, s.instrumented("grpc_models", s.listModels))
	s.rpc.Unary(mvgpb.MvgMethodHealth,
		func() grpcx.Message { return new(mvgpb.HealthRequest) }, s.instrumented("grpc_healthz", s.health))
	s.rpc.Stream(mvgpb.MvgMethodStreamPredict, s.streamPredict)
	return s
}

// ServeHTTP implements http.Handler (the grpcx server underneath).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.rpc.ServeHTTP(w, r)
}

// Engine returns the engine this codec serves.
func (s *Server) Engine() *core.Engine { return s.engine }

// statusErr renders any serving error as a *grpcx.Status through the
// shared table. grpcx.Status errors (from the runtime itself) pass
// through unchanged.
func statusErr(err error) error {
	if err == nil {
		return nil
	}
	var st *grpcx.Status
	if errors.As(err, &st) {
		return st
	}
	return grpcx.Statusf(core.StatusOf(err).GRPC, "%s", err.Error())
}

// instrumented wraps a unary handler with the request metrics shared with
// the HTTP codec: the in-flight gauge, per-route/status counters (the
// status label is the shared table's HTTP equivalent, so one dashboard
// covers both transports) and the latency histogram.
func (s *Server) instrumented(route string, h grpcx.UnaryHandler) grpcx.UnaryHandler {
	return func(ctx context.Context, call *grpcx.ServerCall, req grpcx.Message) (grpcx.Message, error) {
		finish := s.engine.Metrics().RequestStarted()
		start := time.Now()
		resp, err := h(ctx, call, req)
		finish(route, core.StatusOf(err).HTTP, time.Since(start).Seconds())
		if err != nil {
			if logger := s.engine.Logger(); logger != nil {
				logger.Printf("grpc %s -> %s (%.1fms)", route, core.StatusOf(err).GRPC,
					float64(time.Since(start).Microseconds())/1000)
			}
			return nil, statusErr(err)
		}
		return resp, nil
	}
}

// admitted runs a predict handler inside the engine's admitted scope,
// under the instrumentation: the request deadline and an admission slot,
// or RESOURCE_EXHAUSTED before any model work, exactly like the HTTP 429.
func (s *Server) admitted(h grpcx.UnaryHandler) grpcx.UnaryHandler {
	return s.instrumented("grpc_predict", func(ctx context.Context, call *grpcx.ServerCall, req grpcx.Message) (grpcx.Message, error) {
		var resp grpcx.Message
		err := s.engine.Admitted(ctx, func(ctx context.Context) (err error) {
			resp, err = h(ctx, call, req)
			return err
		})
		return resp, err
	})
}

// ---- unary handlers ----

// predictOne is the half Predict and PredictProba share: one series
// through the engine, which coalesces it.
func (s *Server) predictOne(ctx context.Context, r *mvgpb.PredictRequest) (proba []float64, coalesced bool, err error) {
	m, err := s.engine.Model(r.Model)
	if err != nil {
		return nil, false, err
	}
	rows, coalesced, err := s.engine.Predict(ctx, r.Model, m, [][]float64{r.Series}, true)
	if err != nil {
		return nil, false, err
	}
	return rows[0], coalesced, nil
}

func (s *Server) predict(ctx context.Context, call *grpcx.ServerCall, req grpcx.Message) (grpcx.Message, error) {
	r := req.(*mvgpb.PredictRequest)
	proba, coalesced, err := s.predictOne(ctx, r)
	if err != nil {
		return nil, err
	}
	return &mvgpb.PredictResponse{Model: r.Model, Class: int32(core.Argmax(proba)), Coalesced: coalesced}, nil
}

func (s *Server) predictProba(ctx context.Context, call *grpcx.ServerCall, req grpcx.Message) (grpcx.Message, error) {
	r := req.(*mvgpb.PredictRequest)
	proba, coalesced, err := s.predictOne(ctx, r)
	if err != nil {
		return nil, err
	}
	return &mvgpb.PredictProbaResponse{Model: r.Model, Proba: proba, Coalesced: coalesced}, nil
}

func (s *Server) predictBatch(ctx context.Context, call *grpcx.ServerCall, req grpcx.Message) (grpcx.Message, error) {
	r := req.(*mvgpb.PredictBatchRequest)
	m, err := s.engine.Model(r.Model)
	if err != nil {
		return nil, err
	}
	series := make([][]float64, len(r.Batch))
	for i, sr := range r.Batch {
		if sr != nil {
			series[i] = sr.Values
		}
	}
	rows, _, err := s.engine.Predict(ctx, r.Model, m, series, false)
	if err != nil {
		return nil, err
	}
	classes := make([]int32, len(rows))
	for i, row := range rows {
		classes[i] = int32(core.Argmax(row))
	}
	return &mvgpb.PredictBatchResponse{Model: r.Model, Classes: classes}, nil
}

func (s *Server) listModels(ctx context.Context, call *grpcx.ServerCall, req grpcx.Message) (grpcx.Message, error) {
	infos := s.engine.Registry().List()
	resp := &mvgpb.ListModelsResponse{Models: make([]*mvgpb.ModelInfo, 0, len(infos))}
	for _, mi := range infos {
		resp.Models = append(resp.Models, &mvgpb.ModelInfo{
			Name:         mi.Name,
			Classes:      int32(mi.Classes),
			SeriesLen:    int32(mi.SeriesLen),
			Features:     int32(mi.Features),
			FeatureNames: mi.FeatureNames,
			Workers:      int32(mi.Workers),
			Source:       mi.Source,
		})
	}
	return resp, nil
}

func (s *Server) health(ctx context.Context, call *grpcx.ServerCall, req grpcx.Message) (grpcx.Message, error) {
	h := s.engine.HealthSnapshot()
	resp := &mvgpb.HealthResponse{
		Status:     h.Status,
		Ready:      h.Ready,
		Shedding:   h.Shedding,
		Models:     int64(h.Models),
		InFlight:   int64(h.InFlight),
		QueueDepth: int64(h.QueueDepth),
		Streams:    int64(h.Streams),
		ShedTotal:  h.ShedTotal,
	}
	reasons := make([]string, 0, len(h.EvictTotals))
	for reason := range h.EvictTotals {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		resp.EvictTotals = append(resp.EvictTotals, &mvgpb.EvictCount{Reason: reason, Total: h.EvictTotals[reason]})
	}
	return resp, nil
}

// ---- stream handler ----

// streamPredict is the bidi StreamPredict rpc: the first StreamRequest
// must carry Open (model, hop, alert specs); every request's Samples are
// pushed in order, and predictions/alerts come back as StreamResponse
// frames. The dialogue loop — idle and slow-reader eviction, write
// deadlines, drain, the event stream — is core.RunDialogue, shared with
// the NDJSON endpoint.
func (s *Server) streamPredict(ctx context.Context, call *grpcx.ServerCall) error {
	finish := s.engine.Metrics().RequestStarted()
	start := time.Now()
	sio := &grpcIO{call: call, chunks: make(chan core.Samples)}
	defer func() {
		finish("grpc_stream", core.StatusOf(sio.err).HTTP, time.Since(start).Seconds())
	}()

	var first mvgpb.StreamRequest
	if err := call.Recv(&first); err != nil {
		sio.err = grpcx.Statusf(grpcx.InvalidArgument, "reading open frame: %v", err)
		return sio.err
	}
	if first.Open == nil {
		sio.err = grpcx.Statusf(grpcx.InvalidArgument, "first StreamRequest must carry open")
		return sio.err
	}
	hop := int(first.Open.Hop)
	if hop == 0 {
		hop = 1
	}
	d, err := s.engine.OpenDialogue(core.DialogueConfig{
		Model:  first.Open.Model,
		Hop:    hop,
		Alerts: first.Open.Alerts,
		Tenant: core.TenantKey(call.RemoteAddr(), call.Metadata(core.TenantMetadataKey)),
	})
	if err != nil {
		sio.err = statusErr(err)
		return sio.err
	}
	defer d.Close()

	// Reader goroutine: frames → sample chunks. Unlike the HTTP body
	// reader there is no join problem — call.Recv reads the request body
	// through net/http's own plumbing, and the handler returning cancels
	// the request context, which fails a parked Recv.
	stopReader := make(chan struct{})
	go func() {
		defer close(sio.chunks)
		emit := func(chunk core.Samples) bool {
			select {
			case sio.chunks <- chunk:
				return true
			case <-stopReader:
				return false
			}
		}
		if len(first.Samples) > 0 {
			if !emit(core.Samples{Values: first.Samples}) {
				return
			}
		}
		for {
			var req mvgpb.StreamRequest
			if err := call.Recv(&req); err != nil {
				if !errors.Is(err, io.EOF) {
					emit(core.Samples{Err: core.Errorf(core.StatusBadRequest, "reading stream: %v", err)})
				}
				return
			}
			if req.Open != nil {
				emit(core.Samples{Err: core.Errorf(core.StatusBadRequest, "open frame repeated mid-stream")})
				return
			}
			if len(req.Samples) > 0 && !emit(core.Samples{Values: req.Samples}) {
				return
			}
		}
	}()
	defer close(stopReader)

	s.engine.RunDialogue(ctx, d, sio)
	return sio.err
}

// grpcIO adapts the response side of a dialogue to core.DialogueIO: one
// StreamResponse frame per event. The write deadlines and what a failed
// send means are RunDialogue's.
type grpcIO struct {
	call   *grpcx.ServerCall
	chunks chan core.Samples
	err    error // terminal status, nil on a clean dialogue
}

func (g *grpcIO) Samples() <-chan core.Samples { return g.chunks }

func (g *grpcIO) SetWriteDeadline(t time.Time) error { return g.call.SetWriteDeadline(t) }

func (g *grpcIO) Emit(ev core.StreamEvent) error {
	resp := &mvgpb.StreamResponse{}
	switch {
	case ev.Prediction != nil:
		p := &mvgpb.StreamPrediction{
			Sample: int64(ev.Prediction.Sample),
			Class:  int32(ev.Prediction.Class),
			Proba:  ev.Prediction.Proba,
		}
		if ev.Prediction.Drift != nil {
			p.Drift, p.HasDrift = *ev.Prediction.Drift, true
		}
		resp.Prediction = p
	case ev.Alert != nil:
		resp.Alert = &mvgpb.StreamAlert{
			Alert:  ev.Alert.Alert,
			From:   ev.Alert.From,
			To:     ev.Alert.To,
			Sample: int64(ev.Alert.Sample),
			Value:  ev.Alert.Value,
		}
	}
	return g.call.Send(resp)
}

func (g *grpcIO) EmitDone(done core.StreamDone) error {
	return g.call.Send(&mvgpb.StreamResponse{Done: &mvgpb.StreamDone{
		Samples:     int64(done.Samples),
		Predictions: int64(done.Predictions),
		Draining:    done.Draining,
	}})
}

// EmitError records the terminal failure; the handler returns it so the
// status travels in the trailers (gRPC streams have no mid-stream error
// frame — the trailer is the error channel).
func (g *grpcIO) EmitError(err error) {
	g.err = statusErr(err)
}
