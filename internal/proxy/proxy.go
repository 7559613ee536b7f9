package proxy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mvg/api/mvgpb"
	"mvg/internal/grpcx"
	"mvg/internal/serve/core"
)

// maxBufferedBody bounds the request body the proxy will buffer for a
// retryable forward — aligned with the backends' own 64 MiB body cap, so
// anything the proxy refuses the backend would have refused too.
const maxBufferedBody = 64 << 20

// Backend is one mvgserve replica: its HTTP API address and, when the
// replica also serves gRPC, that listener's address. Name labels the
// backend in metrics and on the ring; it defaults to HTTPAddr.
type Backend struct {
	Name     string
	HTTPAddr string
	GRPCAddr string
}

// Config configures a Proxy.
type Config struct {
	// Backends is the replica set. At least one is required; names must
	// be distinct.
	Backends []Backend
	// HealthInterval is the /healthz poll period (default 2s).
	HealthInterval time.Duration
	// RetryAfter is the hint attached to shed responses (default 1s).
	RetryAfter time.Duration
	// Logger receives forward failures and health transitions; nil
	// disables logging.
	Logger *log.Logger
}

// Proxy is the fleet front door. It implements http.Handler and accepts
// both the JSON API and gRPC on one listener (serve it from an h2c-capable
// server, grpcx.NewH2CServer); requests route to backends by
// consistent-hashing the model name, so every transport's traffic for a
// model shares one replica's coalescer.
type Proxy struct {
	cfg      Config
	ring     *ring
	backends map[string]Backend
	health   *health
	metrics  *Metrics

	// httpClient speaks HTTP/1 to the replicas' JSON listeners;
	// grpcClient speaks h2c to their gRPC listeners.
	httpClient *http.Client
	grpcClient *http.Client
}

// New validates cfg, builds the ring, runs one synchronous health poll
// (so a freshly started proxy routes correctly before the first tick)
// and starts the background checker. Close releases it.
func New(cfg Config) (*Proxy, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("proxy: at least one backend is required")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	backends := make(map[string]Backend, len(cfg.Backends))
	names := make([]string, 0, len(cfg.Backends))
	addrs := make(map[string]string, len(cfg.Backends))
	for i := range cfg.Backends {
		b := cfg.Backends[i]
		if b.HTTPAddr == "" {
			return nil, fmt.Errorf("proxy: backend %d has no HTTP address", i)
		}
		if b.Name == "" {
			b.Name = b.HTTPAddr
		}
		if _, dup := backends[b.Name]; dup {
			return nil, fmt.Errorf("proxy: duplicate backend name %q", b.Name)
		}
		backends[b.Name] = b
		names = append(names, b.Name)
		addrs[b.Name] = b.HTTPAddr
	}
	m := newMetrics()
	p := &Proxy{
		cfg:        cfg,
		ring:       newRing(names),
		backends:   backends,
		health:     newHealth(addrs, cfg.HealthInterval, m),
		metrics:    m,
		httpClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}},
		grpcClient: &http.Client{Transport: grpcx.NewH2CTransport()},
	}
	p.health.CheckNow()
	go p.health.run()
	return p, nil
}

// Close stops the health checker and releases pooled backend
// connections.
func (p *Proxy) Close() {
	p.health.close()
	p.httpClient.CloseIdleConnections()
	p.grpcClient.CloseIdleConnections()
}

// Metrics returns the proxy's counter set.
func (p *Proxy) Metrics() *Metrics { return p.metrics }

// CheckNow forces one synchronous health poll of every backend.
func (p *Proxy) CheckNow() { p.health.CheckNow() }

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logger != nil {
		p.cfg.Logger.Printf(format, args...)
	}
}

// candidates returns the healthy backends for key, in ring preference
// order.
func (p *Proxy) candidates(key string) []Backend {
	order := p.ring.Order(key)
	out := make([]Backend, 0, len(order))
	for _, name := range order {
		if p.health.Healthy(name) {
			out = append(out, p.backends[name])
		}
	}
	return out
}

// statusRecorder captures the client-visible status for the request
// counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush through the wrapper — streamed forwards flush per chunk.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// ServeHTTP implements http.Handler: gRPC requests (HTTP/2 with a grpc
// content type) take the frame-forwarding path, everything else the JSON
// path; /healthz and /metrics are answered by the proxy itself.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	defer func() { p.metrics.Request(sr.code) }()

	if r.ProtoMajor == 2 && strings.HasPrefix(r.Header.Get("Content-Type"), "application/grpc") {
		p.serveGRPC(sr, r)
		return
	}
	switch r.URL.Path {
	case "/healthz":
		p.serveHealthz(sr)
	case "/metrics":
		sr.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		sr.WriteHeader(http.StatusOK)
		p.metrics.WritePrometheus(sr)
	default:
		p.serveJSON(sr, r)
	}
}

// serveHealthz reports the proxy ready while at least one backend is;
// with the whole fleet down it answers 503 so the proxy's own health
// check fails alongside.
func (p *Proxy) serveHealthz(w http.ResponseWriter) {
	snap := p.health.Snapshot()
	ready := false
	for _, up := range snap {
		ready = ready || up
	}
	code := http.StatusOK
	status := "ok"
	if !ready {
		code = http.StatusServiceUnavailable
		status = "unavailable"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status": status, "ready": ready, "backends": snap,
	})
}

// ---- JSON path ----

// jsonRouteKey extracts the ring key and idempotency class from a JSON
// API path. Predicts are idempotent (safe to retry on another replica);
// streams are forwarded once without retry; everything else — reload,
// the model listing — is forwarded once to the key's owner.
func jsonRouteKey(path string) (key string, retryable, stream bool) {
	rest, ok := strings.CutPrefix(path, "/v1/models/")
	if !ok {
		return path, false, false
	}
	name, op, ok := strings.Cut(rest, "/")
	if !ok {
		return path, false, false // the bare /v1/models listing
	}
	switch op {
	case "predict", "predict_proba":
		return name, true, false
	case "stream":
		return name, false, true
	default:
		return name, false, false
	}
}

// shedJSON rejects a request no healthy backend can serve: 429 with a
// Retry-After hint, mirroring the backends' own admission-control
// surface so clients need one retry policy, not two.
func (p *Proxy) shedJSON(w http.ResponseWriter, reason string) {
	p.metrics.Shed()
	w.Header().Set("Retry-After", core.RetryAfterSeconds(p.cfg.RetryAfter))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(map[string]string{"error": reason})
}

func (p *Proxy) serveJSON(w http.ResponseWriter, r *http.Request) {
	key, retryable, stream := jsonRouteKey(r.URL.Path)
	cands := p.candidates(key)
	if len(cands) == 0 {
		p.shedJSON(w, "no healthy backend")
		return
	}

	if stream {
		// Streams are stateful dialogues: forwarded to the key's owner,
		// flushed per chunk, never replayed.
		p.forwardStream(w, r, cands[0].HTTPAddr, r.Body, p.httpClient)
		return
	}

	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBufferedBody+1))
		if err != nil {
			http.Error(w, "reading request body", http.StatusBadRequest)
			return
		}
		if len(body) > maxBufferedBody {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
	}

	attempts := 1
	if retryable {
		attempts = 2
	}
	for i := 0; i < attempts && i < len(cands); i++ {
		b := cands[i]
		resp, err := p.roundTrip(r, b.HTTPAddr, bytes.NewReader(body), p.httpClient)
		if err != nil {
			// Connection-level failure: the shard is gone. Mark it down so
			// routing recovers before the next poll, and fail over.
			p.health.MarkDown(b.Name)
			p.logf("backend %s: %v", b.Name, err)
			if retryable && i+1 < len(cands) {
				p.metrics.Retry()
				continue
			}
			p.shedJSON(w, "backend unavailable")
			return
		}
		// 503 is the backends' "cannot serve right now" row — draining or
		// past its own deadline. Idempotent work moves on.
		if retryable && resp.StatusCode == http.StatusServiceUnavailable && i+1 < len(cands) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			p.health.MarkDown(b.Name)
			p.metrics.Retry()
			continue
		}
		defer resp.Body.Close()
		copyHeader(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	p.shedJSON(w, "no healthy backend")
}

// ---- gRPC path ----

// grpcModelKey decodes the ring key out of the first request frame,
// per method. ListModels and Health carry no model; they route by
// method path, which spreads them but keeps them deterministic.
func grpcModelKey(path string, frame []byte) (string, error) {
	switch path {
	case mvgpb.MvgMethodPredict, mvgpb.MvgMethodPredictProba:
		var req mvgpb.PredictRequest
		if err := req.Unmarshal(frame); err != nil {
			return "", err
		}
		return req.Model, nil
	case mvgpb.MvgMethodPredictBatch:
		var req mvgpb.PredictBatchRequest
		if err := req.Unmarshal(frame); err != nil {
			return "", err
		}
		return req.Model, nil
	case mvgpb.MvgMethodStreamPredict:
		var req mvgpb.StreamRequest
		if err := req.Unmarshal(frame); err != nil {
			return "", err
		}
		if req.Open != nil {
			return req.Open.Model, nil
		}
		return "", nil
	}
	return path, nil
}

// shedGRPC rejects a gRPC call with RESOURCE_EXHAUSTED as a
// trailers-only response (the status travels in the HTTP headers, no
// body) — the same row of the status table the backends shed with.
func (p *Proxy) shedGRPC(w http.ResponseWriter, reason string) {
	p.metrics.Shed()
	h := w.Header()
	h.Set("Content-Type", "application/grpc+proto")
	h.Set("Retry-After", core.RetryAfterSeconds(p.cfg.RetryAfter))
	h.Set("Grpc-Status", strconv.Itoa(int(grpcx.ResourceExhausted)))
	h.Set("Grpc-Message", reason)
	w.WriteHeader(http.StatusOK)
}

func grpcStatusErr(w http.ResponseWriter, code grpcx.Code, reason string) {
	h := w.Header()
	h.Set("Content-Type", "application/grpc+proto")
	h.Set("Grpc-Status", strconv.Itoa(int(code)))
	h.Set("Grpc-Message", reason)
	w.WriteHeader(http.StatusOK)
}

func (p *Proxy) serveGRPC(w http.ResponseWriter, r *http.Request) {
	if mvgpb.MvgStreamingMethods[r.URL.Path] {
		p.serveGRPCStream(w, r)
		return
	}
	// Peek the first frame: it names the model the call is for, which is
	// the ring key. The frame is re-encoded in front of the remaining
	// body for forwarding.
	frame, err := grpcx.ReadFrame(r.Body, grpcx.DefaultMaxMessageSize)
	if err != nil && !errors.Is(err, io.EOF) {
		grpcStatusErr(w, grpcx.Internal, fmt.Sprintf("reading request frame: %v", err))
		return
	}
	key, kerr := grpcModelKey(r.URL.Path, frame)
	if kerr != nil {
		grpcStatusErr(w, grpcx.InvalidArgument, fmt.Sprintf("decoding request: %v", kerr))
		return
	}

	cands := p.candidates(key)
	withGRPC := cands[:0:0]
	for _, b := range cands {
		if b.GRPCAddr != "" {
			withGRPC = append(withGRPC, b)
		}
	}
	if len(withGRPC) == 0 {
		p.shedGRPC(w, "no healthy backend")
		return
	}

	var framed bytes.Buffer
	if err == nil {
		grpcx.WriteFrame(&framed, frame)
	}

	// Unary: the single request frame is already buffered, so a dead or
	// draining shard costs one retry on the next ring candidate. The
	// response is buffered too — the status lives in the trailers, and
	// the retry decision needs it before bytes reach the client.
	for i := 0; i < 2 && i < len(withGRPC); i++ {
		b := withGRPC[i]
		resp, err := p.roundTrip(r, b.GRPCAddr, bytes.NewReader(framed.Bytes()), p.grpcClient)
		if err != nil {
			p.health.MarkDown(b.Name)
			p.logf("backend %s (grpc): %v", b.Name, err)
			if i+1 < len(withGRPC) {
				p.metrics.Retry()
				continue
			}
			p.shedGRPC(w, "backend unavailable")
			return
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, grpcx.DefaultMaxMessageSize+16))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			p.health.MarkDown(b.Name)
			if i+1 < len(withGRPC) {
				p.metrics.Retry()
				continue
			}
			p.shedGRPC(w, "backend unavailable")
			return
		}
		// UNAVAILABLE in the trailer is the draining signal over gRPC —
		// the connection still answers, but the engine is going away.
		if grpcTrailerCode(resp) == grpcx.Unavailable && i+1 < len(withGRPC) {
			p.health.MarkDown(b.Name)
			p.metrics.Retry()
			continue
		}
		copyHeader(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		relayTrailers(w, resp)
		return
	}
	p.shedGRPC(w, "no healthy backend")
}

// serveGRPCStream forwards one bidi-streaming call. The proxy's own
// response headers go out immediately: a gRPC client may wait for them
// before sending its first frame, and the proxy cannot peek that frame
// (the ring key) until the client sends it — relaying the backend's
// headers instead would deadlock the dialogue against itself. With
// headers already sent, every outcome (including failure to reach a
// backend) travels in the declared grpc-status trailer.
func (p *Proxy) serveGRPCStream(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("Content-Type", "application/grpc+proto")
	h.Set("Trailer", "Grpc-Status, Grpc-Message")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()
	trailer := func(code grpcx.Code, msg string) {
		h.Set("Grpc-Status", strconv.Itoa(int(code)))
		if msg != "" {
			h.Set("Grpc-Message", msg)
		}
	}

	frame, err := grpcx.ReadFrame(r.Body, grpcx.DefaultMaxMessageSize)
	if err != nil && !errors.Is(err, io.EOF) {
		trailer(grpcx.Internal, fmt.Sprintf("reading request frame: %v", err))
		return
	}
	key, kerr := grpcModelKey(r.URL.Path, frame)
	if kerr != nil {
		trailer(grpcx.InvalidArgument, fmt.Sprintf("decoding request: %v", kerr))
		return
	}

	var target Backend
	for _, b := range p.candidates(key) {
		if b.GRPCAddr != "" {
			target = b
			break
		}
	}
	if target.GRPCAddr == "" {
		p.metrics.Shed()
		trailer(grpcx.ResourceExhausted, "no healthy backend")
		return
	}

	// Splice the peeked frame back in front of the live body and forward
	// once — streams are stateful dialogues, never replayed.
	var framed bytes.Buffer
	if err == nil {
		grpcx.WriteFrame(&framed, frame)
	}
	resp, rerr := p.roundTrip(r, target.GRPCAddr, io.MultiReader(bytes.NewReader(framed.Bytes()), r.Body), p.grpcClient)
	if rerr != nil {
		p.health.MarkDown(target.Name)
		p.logf("stream to %s (grpc): %v", target.Name, rerr)
		trailer(grpcx.Unavailable, "backend unavailable")
		return
	}
	defer resp.Body.Close()
	flushCopy(w, resp.Body)
	// Relay the backend's verdict, whether it travelled as a trailer or —
	// trailers-only responses — in the headers; both are still percent-
	// encoded, so they pass through verbatim.
	st := resp.Trailer.Get("Grpc-Status")
	msg := resp.Trailer.Get("Grpc-Message")
	if st == "" {
		st = resp.Header.Get("Grpc-Status")
		msg = resp.Header.Get("Grpc-Message")
	}
	if st == "" {
		trailer(grpcx.Internal, "backend sent no grpc-status")
		return
	}
	h.Set("Grpc-Status", st)
	if msg != "" {
		h.Set("Grpc-Message", msg)
	}
}

// grpcTrailerCode extracts the grpc-status code from a fully read
// response, whether it travelled as a trailer or (trailers-only
// responses) as a header. Absent or malformed reads as OK — the relay
// passes whatever is there through verbatim either way.
func grpcTrailerCode(resp *http.Response) grpcx.Code {
	v := resp.Trailer.Get("Grpc-Status")
	if v == "" {
		v = resp.Header.Get("Grpc-Status")
	}
	if v == "" {
		return grpcx.OK
	}
	n, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return grpcx.OK
	}
	return grpcx.Code(n)
}

// ---- shared forwarding machinery ----

// hopHeaders are the hop-by-hop headers stripped when relaying in either
// direction. Te is deliberately kept: gRPC requires "te: trailers"
// end-to-end.
var hopHeaders = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Transfer-Encoding", "Upgrade"}

func copyHeader(dst, src http.Header) {
	for k, vv := range src {
		dst[k] = append([]string(nil), vv...)
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

// roundTrip issues the outbound request for r against addr with the
// given body, carrying the original headers plus the resolved tenant
// key. The proxy terminates the client connection, so without the
// forwarded X-Mvg-Tenant the backends would account every stream to the
// proxy's own address and one tenant could starve the rest.
func (p *Proxy) roundTrip(r *http.Request, addr string, body io.Reader, client *http.Client) (*http.Response, error) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+addr+r.URL.RequestURI(), body)
	if err != nil {
		return nil, err
	}
	copyHeader(out.Header, r.Header)
	tenant := core.TenantKey(r.RemoteAddr,
		r.URL.Query().Get(core.TenantParam),
		r.Header.Get(core.TenantHeader),
		r.Header.Get(core.TenantMetadataKey))
	out.Header.Set(core.TenantHeader, tenant)
	return client.Do(out)
}

// forwardStream forwards one streaming request (NDJSON or gRPC bidi)
// and relays the response with a flush after every chunk, so dialogue
// frames cross the proxy without buffering delay. Trailers, if the
// backend sent any, are relayed after the body.
func (p *Proxy) forwardStream(w http.ResponseWriter, r *http.Request, addr string, body io.Reader, client *http.Client) {
	// An interactive HTTP/1 dialogue writes response lines while the
	// client is still sending samples; without the full-duplex opt-in
	// net/http would close the connection on the first such write.
	// HTTP/2 is always full-duplex, so the error is ignorable.
	_ = http.NewResponseController(w).EnableFullDuplex()
	resp, err := p.roundTrip(r, addr, body, client)
	if err != nil {
		p.logf("stream to %s: %v", addr, err)
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/grpc") {
			grpcStatusErr(w, grpcx.Unavailable, "backend unavailable")
		} else {
			http.Error(w, "backend unavailable", http.StatusServiceUnavailable)
		}
		return
	}
	defer resp.Body.Close()
	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
	relayTrailers(w, resp)
}

// relayTrailers copies the backend's HTTP trailers to the client using
// the TrailerPrefix convention (net/http sends them as real HTTP/2
// trailers without pre-declaration) — this is how grpc-status crosses
// the proxy.
func relayTrailers(w http.ResponseWriter, resp *http.Response) {
	for k, vv := range resp.Trailer {
		for _, v := range vv {
			w.Header().Add(http.TrailerPrefix+k, v)
		}
	}
}

func flushCopy(w http.ResponseWriter, r io.Reader) {
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush()
		}
		if err != nil {
			return
		}
	}
}
