// Command mvgserve serves saved MVG models over HTTP — and, with
// -grpc-addr, simultaneously over gRPC — with request coalescing:
// concurrent single-series predictions are merged into batches for the
// parallel extraction engine. Both transports are thin codecs over one
// shared serving engine, so responses are byte-identical regardless of
// which wire asked. See docs/serving.md for the endpoint contract, the
// gRPC surface and tuning guidance.
//
// Usage:
//
//	mvgserve -models ./models                     # serve every ./models/*.mvg on :8080
//	mvgserve -models ./models -addr :9000 -window 5ms -max-batch 128
//	mvgserve -models ./models -grpc-addr :8081    # gRPC (h2c) alongside HTTP
//	mvgserve -models ./models -workers 4 -shutdown-timeout 30s
//	mvgserve -models ./models -pprof 127.0.0.1:6060   # opt-in debug listener
//	mvgserve -models ./models -alert-webhook http://alerts.internal/hook -alert-log
//	mvgserve -models ./models -max-inflight 64 -max-queue 256 -request-timeout 30s
//	mvgserve -models ./models -max-streams 1024 -max-streams-per-tenant 64 -stream-idle-timeout 5m
//
// Overload behavior (docs/robustness.md): predict requests beyond
// -max-inflight wait in a bounded queue; beyond -max-queue they are shed
// with 429 + Retry-After (RESOURCE_EXHAUSTED over gRPC). Every predict
// request carries the -request-timeout deadline (503 on expiry). Streams
// are bounded by -max-streams / -max-streams-per-tenant (429 when full),
// idle-evicted after -stream-idle-timeout, and slow readers are cut off
// by -stream-write-timeout. /healthz reports readiness (shed state,
// stream and queue depth) for fleet health checks; the gRPC Health rpc
// reports the same snapshot.
//
// HTTP endpoints:
//
//	POST /v1/models/{name}/predict        {"series": [...]} or {"batch": [[...], ...]}
//	POST /v1/models/{name}/predict_proba  same bodies, probability vectors back
//	POST /v1/models/{name}/stream         NDJSON sliding-window dialogue: one sample
//	                                      per line in, one prediction per hop out
//	POST /v1/models/{name}/reload         atomically reload the model file
//	GET  /v1/models                       registry listing with feature metadata
//	GET  /healthz                         liveness
//	GET  /metrics                         Prometheus text metrics
//
// gRPC service (api/proto/mvg.proto, served over h2c on -grpc-addr):
//
//	mvg.v1.Mvg/Predict, PredictProba, PredictBatch, StreamPredict (bidi),
//	ListModels, Health
//
// On SIGTERM/SIGINT the server stops accepting connections on both
// transports, drains in-flight requests and coalesced batches, then
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mvg"
	alertwebhook "mvg/internal/alert/webhook"
	"mvg/internal/grpcx"
	"mvg/internal/serve/core"
	"mvg/internal/serve/grpcapi"
	"mvg/internal/serve/httpapi"
)

func main() {
	var (
		addr            = flag.String("addr", ":8080", "HTTP listen address")
		grpcAddr        = flag.String("grpc-addr", "", "gRPC (h2c) listen address; empty disables the gRPC transport")
		modelDir        = flag.String("models", "", "directory of saved *.mvg models (required)")
		window          = flag.Duration("window", core.DefaultWindow, "coalescing window: the longest a request queued behind a busy model waits before its batch flushes")
		maxBatch        = flag.Int("max-batch", core.DefaultMaxBatch, "flush a coalesced batch at this many pending requests")
		workers         = flag.Int("workers", 0, "worker goroutines per prediction batch (0 = GOMAXPROCS)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 15*time.Second, "maximum time to drain in-flight requests on SIGTERM")
		pprofAddr       = flag.String("pprof", "", "serve net/http/pprof on this separate debug address (e.g. 127.0.0.1:6060); empty disables")
		alertWebhook    = flag.String("alert-webhook", "", "POST FIRING/RESOLVED alert events from ?alert= streams to this URL")
		alertLog        = flag.Bool("alert-log", false, "log FIRING/RESOLVED alert events as NDJSON on stderr")

		// Overload safety (docs/robustness.md).
		maxInFlight       = flag.Int("max-inflight", 64, "concurrently executing predict requests; 0 disables admission control")
		maxQueue          = flag.Int("max-queue", 256, "predict requests allowed to wait for a slot; beyond this they are shed with 429")
		requestTimeout    = flag.Duration("request-timeout", 30*time.Second, "server-side deadline per predict request, queue wait included (503 on expiry); 0 disables")
		retryAfter        = flag.Duration("retry-after", core.DefaultRetryAfter, "Retry-After hint attached to 429/503 shed and timeout responses")
		maxStreams        = flag.Int("max-streams", core.DefaultMaxStreams, "concurrently open stream dialogues across all tenants; -1 = unlimited")
		maxTenantStreams  = flag.Int("max-streams-per-tenant", core.DefaultMaxStreamsPerTenant, "concurrently open streams per tenant (?tenant= or client IP); -1 = unlimited")
		streamIdleTimeout = flag.Duration("stream-idle-timeout", core.DefaultStreamIdleTimeout, "evict a stream that sends no sample for this long; -1s disables")
		streamWriteTo     = flag.Duration("stream-write-timeout", core.DefaultStreamWriteTimeout, "evict a stream whose client stops reading for this long; -1s disables")
		readHeaderTo      = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout: how long a client may dribble request headers (slowloris guard)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "mvgserve: ", log.LstdFlags)
	if *modelDir == "" {
		fmt.Fprintln(os.Stderr, "mvgserve: -models is required")
		flag.Usage()
		os.Exit(2)
	}

	registry := core.NewRegistry()
	names, err := registry.LoadDir(*modelDir)
	if err != nil {
		logger.Fatal(err)
	}
	registry.SetWorkers(*workers)
	logger.Printf("loaded %d model(s) from %s: %v", len(names), *modelDir, names)

	// The alert sink is owned here, not by the engine: it is closed after
	// the full drain so events from in-flight stream dialogues still get
	// delivered (webhook Close waits out its bounded retry queue).
	var alertSink mvg.AlertSink
	{
		var sinks []mvg.AlertSink
		if *alertLog {
			sinks = append(sinks, mvg.NewAlertLogSink(os.Stderr))
		}
		if *alertWebhook != "" {
			hook, err := alertwebhook.New(alertwebhook.Config{
				URL:      *alertWebhook,
				Fallback: mvg.NewAlertLogSink(os.Stderr),
			})
			if err != nil {
				logger.Fatalf("alert webhook: %v", err)
			}
			sinks = append(sinks, hook)
		}
		if len(sinks) > 0 {
			alertSink = mvg.AlertFanout(sinks...)
			logger.Printf("alert sink: log=%v webhook=%q", *alertLog, *alertWebhook)
		}
	}

	// One engine, N transports: the registry, coalescers, admission
	// limiter, stream sessions and metrics are shared, so an HTTP predict
	// and a gRPC predict for the same series coalesce into the same batch
	// and return the same bytes.
	engine, err := core.NewEngine(core.Config{
		Registry:  registry,
		Window:    *window,
		MaxBatch:  *maxBatch,
		Logger:    logger,
		AlertSink: alertSink,

		MaxInFlight:         *maxInFlight,
		MaxQueue:            *maxQueue,
		RequestTimeout:      *requestTimeout,
		RetryAfter:          *retryAfter,
		MaxStreams:          *maxStreams,
		MaxStreamsPerTenant: *maxTenantStreams,
		StreamIdleTimeout:   *streamIdleTimeout,
		StreamWriteTimeout:  *streamWriteTo,
	})
	if err != nil {
		logger.Fatal(err)
	}
	srv := httpapi.NewServer(engine)

	// The profiling endpoints live on their own listener so they are never
	// reachable through the serving address: exposing pprof on the traffic
	// port would leak heap contents and allow trivial CPU-profile DoS. Bind
	// it to loopback (or a firewalled interface) and keep it off in
	// production unless actively debugging; see docs/serving.md.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Bind synchronously: -pprof is explicit opt-in, so a taken port or
		// mistyped address must fail startup, not scroll by in a log line
		// and surface as an unreachable profiler mid-incident.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			logger.Fatalf("pprof listener: %v", err)
		}
		debugSrv := &http.Server{Handler: mux}
		go func() {
			logger.Printf("pprof debug listener on %s", ln.Addr())
			if err := debugSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof listener: %v", err)
			}
		}()
		defer debugSrv.Close()
	}

	// Transport hardening: ReadHeaderTimeout caps how long a client may
	// dribble its request headers (the slowloris attack — hold sockets
	// open with one header byte at a time) and IdleTimeout reaps parked
	// keep-alive connections. WriteTimeout stays off deliberately: it is
	// per-connection, and the NDJSON stream endpoint legitimately writes
	// for the dialogue's whole lifetime — slow stream readers are handled
	// by per-write deadlines inside the handler instead (-stream-write-
	// timeout; docs/robustness.md).
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: *readHeaderTo,
		IdleTimeout:       120 * time.Second,
	}
	// The moment Shutdown is called, every live stream dialogue is asked
	// to finish with a done event — otherwise connection-pinned streams
	// would hold the HTTP drain open until its timeout.
	httpSrv.RegisterOnShutdown(engine.DrainStreams)
	errc := make(chan error, 2)
	go func() {
		logger.Printf("listening on %s (window=%v max-batch=%d workers=%d)", *addr, *window, *maxBatch, *workers)
		errc <- httpSrv.ListenAndServe()
	}()

	// The gRPC transport is a second codec over the same engine, served on
	// its own h2c listener (gRPC requires HTTP/2; no TLS is assumed inside
	// the fleet perimeter).
	var grpcSrv *http.Server
	if *grpcAddr != "" {
		grpcSrv = grpcx.NewH2CServer(*grpcAddr, grpcapi.NewServer(engine))
		grpcSrv.ReadHeaderTimeout = *readHeaderTo
		grpcSrv.IdleTimeout = 120 * time.Second
		grpcSrv.RegisterOnShutdown(engine.DrainStreams)
		go func() {
			logger.Printf("grpc listening on %s", *grpcAddr)
			errc <- grpcSrv.ListenAndServe()
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		logger.Fatal(err)
	case sig := <-sigc:
		logger.Printf("received %v, draining (timeout %v)", sig, *shutdownTimeout)
	}

	// Drain order matters: first stop accepting connections on every
	// transport and let active handlers finish (they may be blocked on
	// coalesced batches, which stay open), then close the coalescers,
	// which flushes any pending batch. The coalescer drain gets its own
	// budget: if the transport drain consumed the whole timeout (handlers
	// queued behind a busy model under a long window), an already-expired
	// context here would abandon accepted requests.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), *shutdownTimeout)
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if grpcSrv != nil {
		if err := grpcSrv.Shutdown(httpCtx); err != nil {
			logger.Printf("grpc shutdown: %v", err)
		}
	}
	cancelHTTP()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancelDrain()
	if err := engine.Shutdown(drainCtx); err != nil {
		logger.Printf("%v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	if grpcSrv != nil {
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	}
	if alertSink != nil {
		if err := alertSink.Close(); err != nil {
			logger.Printf("alert sink close: %v", err)
		}
	}
	logger.Printf("drained, bye")
}
