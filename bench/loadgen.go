package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"mvg/api/mvgpb"
	"mvg/internal/grpcx"
)

// A run is invalid when more than lateShare of its scheduled sends leave
// more than lateLimit late: the generator, not the system, then set the
// load. The generator shares the process's GOMAXPROCS with the stack, so a
// send routinely waits out a busy processor, up to the runtime's 10 ms
// preemption slice; 20 ms allows one slice plus queueing behind it. A
// generator that cannot keep up is late on most sends, while a stall of
// the shared host delays a burst: one of 150 ms delays about 1% of the
// fleet's sends past 20 ms, hence 5%.
const (
	lateLimit = 20 * time.Millisecond
	lateShare = 0.05
)

// newRand returns the generator for one named input stream of a seed, so
// every input the benchmark makes is a pure function of (seed, label).
func newRand(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// arrivals returns n Poisson arrival offsets in [from, from+span): a
// Poisson process conditioned on its count is n sorted uniform points, so
// every run offers exactly the stated rate.
func arrivals(rng *rand.Rand, n int, from, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(rng.Float64()*float64(span))
	}
	slices.Sort(out)
	return out
}

// call issues request id and checks its answer; any error counts as a
// failed request.
type call func(ctx context.Context, id int) error

// outcome is one answered (or failed) request. sent is when it was due:
// the scheduled time in an open loop, the send in a closed loop.
type outcome struct {
	id         int
	sent, done time.Time
	err        error
}

// lat is the request's latency, measured from when it was due.
func (o outcome) lat() time.Duration { return o.done.Sub(o.sent) }

// openLoop sends request i at start+at[i] whether or not earlier requests
// have answered, and waits for every answer. It returns the outcomes by
// request index and how late each send left.
func openLoop(ctx context.Context, start time.Time, at []time.Duration, do call) ([]outcome, []time.Duration) {
	out := make([]outcome, len(at))
	lags := make([]time.Duration, len(at))
	var wg sync.WaitGroup
	for i, off := range at {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := do(ctx, i)
			out[i] = outcome{id: i, sent: due, done: time.Now(), err: err}
		}()
	}
	wg.Wait()
	return out, lags
}

// closedLoop sends requests 0, 1, ... one at a time, each as soon as the
// previous one answers, until the deadline. Each lag is the time from an
// answer to the next send.
func closedLoop(ctx context.Context, until time.Time, do call) ([]outcome, []time.Duration) {
	var outs []outcome
	var lags []time.Duration
	prev := time.Now()
	for id := 0; prev.Before(until); id++ {
		sent := time.Now()
		err := do(ctx, id)
		now := time.Now()
		outs = append(outs, outcome{id: id, sent: sent, done: now, err: err})
		lags = append(lags, sent.Sub(prev))
		prev = now
	}
	return outs, lags
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. It is NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// client sends the generator's requests over a single h2c connection:
// its transport's MaxConnsPerHost of 1 fixes the connection budget by
// construction, where a pooled transport dials extra connections when
// requests race the first dial.
type client struct {
	hc   *http.Client
	base string // http://host:port
}

func newClient(addr string) *client {
	tr := grpcx.NewH2CTransport()
	tr.MaxConnsPerHost = 1
	return &client{hc: &http.Client{Transport: tr}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// prime opens the client's connection with one untraced Health rpc. The
// server's HTTP/2 settings then arrive before the load: a stream's request
// body written before them gets a 16 KB write buffer, one written after a
// 512 KB buffer, and which one a stream gets would otherwise be a race.
func (c *client) prime(ctx context.Context) error {
	return c.unary(ctx, mvgpb.MvgMethodHealth, -1, frame(&mvgpb.HealthRequest{}), new(mvgpb.HealthResponse))
}

const grpcContentType = "application/grpc+proto"

func (c *client) post(ctx context.Context, path, contentType string, id int, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if id >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(id))
	}
	if contentType == grpcContentType {
		req.Header.Set("Te", "trailers")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: http status %s", path, resp.Status)
	}
	return resp, nil
}

// grpcPrefix is the length of a gRPC frame's prefix: a compression flag
// and the payload's length.
const grpcPrefix = 5

// frame encodes m as one length-prefixed gRPC frame.
func frame(m grpcx.Message) []byte {
	var b bytes.Buffer
	_ = grpcx.WriteFrame(&b, m.Marshal()) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// grpcStatus returns the call's non-OK status, read from the trailers or,
// for trailers-only answers, the headers.
func grpcStatus(resp *http.Response) error {
	code, msg := resp.Trailer.Get("Grpc-Status"), resp.Trailer.Get("Grpc-Message")
	if code == "" {
		code, msg = resp.Header.Get("Grpc-Status"), resp.Header.Get("Grpc-Message")
	}
	if code != "0" {
		return fmt.Errorf("grpc-status %q: %s", code, msg)
	}
	return nil
}

// unary sends one pre-framed gRPC request and decodes the answer into
// resp.
func (c *client) unary(ctx context.Context, method string, id int, req []byte, resp grpcx.Message) error {
	hresp, err := c.post(ctx, method, grpcContentType, id, bytes.NewReader(req))
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	payload, err := grpcx.ReadFrame(hresp.Body, grpcx.DefaultMaxMessageSize)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	// Drain to EOF so the trailers arrive.
	if _, err := io.Copy(io.Discard, hresp.Body); err != nil {
		return err
	}
	if err := grpcStatus(hresp); err != nil {
		return err
	}
	if payload == nil {
		return fmt.Errorf("%s: no response message", method)
	}
	return resp.Unmarshal(payload)
}

// predictProbaJSON posts a pre-encoded JSON body to predict_proba.
func (c *client) predictProbaJSON(ctx context.Context, id int, model string, body []byte) ([]float64, error) {
	resp, err := c.post(ctx, "/v1/models/"+model+"/predict_proba", "application/json", id, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out jsonProba
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Proba, nil
}

// stream is one live bidi-streaming call.
type stream struct {
	pw   *io.PipeWriter
	resp *http.Response
}

func (c *client) stream(ctx context.Context, method string, id int) (*stream, error) {
	pr, pw := io.Pipe()
	resp, err := c.post(ctx, method, grpcContentType, id, pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	return &stream{pw: pw, resp: resp}, nil
}

// send writes one pre-framed request; one goroutine sends.
func (s *stream) send(frame []byte) error {
	_, err := s.pw.Write(frame)
	return err
}

func (s *stream) closeSend() error { return s.pw.Close() }

// recv decodes the next response frame into m. At the end of the call it
// returns io.EOF, or the non-OK status.
func (s *stream) recv(m grpcx.Message) error {
	payload, err := grpcx.ReadFrame(s.resp.Body, grpcx.DefaultMaxMessageSize)
	if errors.Is(err, io.EOF) {
		if err := grpcStatus(s.resp); err != nil {
			return err
		}
		return io.EOF
	}
	if err != nil {
		return err
	}
	return m.Unmarshal(payload)
}

func (s *stream) close() {
	s.pw.Close()
	s.resp.Body.Close()
}

// jsonRequest, jsonProba and jsonClasses are the documented JSON bodies of
// POST /v1/models/{name}/predict and /predict_proba.
type jsonRequest struct {
	Series []float64   `json:"series,omitempty"`
	Batch  [][]float64 `json:"batch,omitempty"`
}

type jsonProba struct {
	Model     string      `json:"model"`
	Proba     []float64   `json:"proba,omitempty"`
	Probas    [][]float64 `json:"probas,omitempty"`
	Coalesced bool        `json:"coalesced,omitempty"`
}

type jsonClasses struct {
	Model     string `json:"model"`
	Class     *int   `json:"class,omitempty"`
	Classes   []int  `json:"classes,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
}

// sameBits reports whether two probability rows are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
