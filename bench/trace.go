package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"mvg/api/mvgpb"
)

// reqHeader carries the benchmark's request id on every request it sends.
// The proxy copies request headers to the replica, which links the spans
// of one request across hops; parentHeader names the hop that forwarded
// it.
const (
	reqHeader    = "X-Bench-Request"
	parentHeader = "X-Bench-Parent"
)

// span is one timed interval at a layer boundary, in nanoseconds since
// the tracer started. Spans of one request share Req; Parent names the
// layer whose span caused this one.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// hopID is the request id of hop j of dialogue k.
func hopID(k, j int) int64 { return int64(k)<<32 | int64(j) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and wraps nothing, so untraced runs serve through the bare
// handlers.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a span named name around next for every request that
// carries a benchmark request id; a StreamPredict dialogue gets one span
// per hop instead.
func (t *tracer) wrap(name string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		parent := r.Header.Get(parentHeader)
		if parent == "" {
			parent = "client"
		}
		r.Header.Set(parentHeader, name)
		if r.URL.Path == mvgpb.MvgMethodStreamPredict {
			t.serveDialogue(name, parent, id, next, w, r)
			return
		}
		start := t.at(time.Now())
		next.ServeHTTP(w, r)
		t.add(span{Req: id, Name: name, Parent: parent, Start: start, End: t.at(time.Now())})
	})
}

// serveDialogue serves one StreamPredict call whose open frame carries
// all history but one hop, so that sample frame j completes hop j. Hop
// j's span starts when that frame has been read and ends when its
// prediction frame has been flushed.
func (t *tracer) serveDialogue(name, parent string, id int64, next http.Handler, w http.ResponseWriter, r *http.Request) {
	in := &frameReader{ReadCloser: r.Body, t: t}
	out := &flushWriter{ResponseWriter: w, t: t}
	r.Body = in
	next.ServeHTTP(out, r)
	in.mu.Lock()
	reads := in.stamps
	in.mu.Unlock()
	// reads[0] is the open frame; the last flush carries the done frame
	// and has no hop.
	for j, end := range out.stamps {
		if 1+j >= len(reads) {
			break
		}
		t.add(span{Req: hopID(int(id), j), Name: name, Parent: parent, Start: reads[1+j], End: end})
	}
}

// frameReader passes a gRPC request body through and stamps the time at
// which each length-prefixed frame has been read in full. The handler's
// reader goroutine may still be inside Read when the handler returns,
// hence the lock.
type frameReader struct {
	io.ReadCloser
	t *tracer

	mu     sync.Mutex
	hdr    int // prefix bytes seen of the current frame
	left   int // payload bytes still to come once the prefix is complete
	stamps []int64
}

func (f *frameReader) Read(p []byte) (int, error) {
	n, err := f.ReadCloser.Read(p)
	now := f.t.at(time.Now())
	f.mu.Lock()
	defer f.mu.Unlock()
	for b := p[:n]; len(b) > 0; {
		if f.hdr < 5 {
			if f.hdr > 0 {
				f.left = f.left<<8 | int(b[0])
			}
			f.hdr++
			b = b[1:]
		} else {
			k := min(f.left, len(b))
			f.left -= k
			b = b[k:]
		}
		if f.hdr == 5 && f.left == 0 {
			f.stamps = append(f.stamps, now)
			f.hdr = 0
		}
	}
	return n, err
}

// flushWriter stamps every flush that follows a write: grpcx flushes once
// per response frame. Unwrap lets http.ResponseController reach the
// connection's write deadline through it.
type flushWriter struct {
	http.ResponseWriter
	t      *tracer
	dirty  bool
	stamps []int64
}

func (w *flushWriter) Write(p []byte) (int, error) {
	w.dirty = true
	return w.ResponseWriter.Write(p)
}

func (w *flushWriter) Flush() {
	_ = http.NewResponseController(w.ResponseWriter).Flush()
	if w.dirty {
		w.stamps = append(w.stamps, w.t.at(time.Now()))
		w.dirty = false
	}
}

func (w *flushWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wire derives the per-hop numbers of the run from its spans. Only
// requests with a client span count: the generator records those for the
// measured phase alone. A request is linked when it has a replica span
// and, if the workload goes through the proxy, a proxy span.
func (t *tracer) wire(viaProxy bool) wireStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := map[string]map[int64]span{}
	for _, s := range t.spans {
		if by[s.Name] == nil {
			by[s.Name] = map[int64]span{}
		}
		by[s.Name][s.Req] = s
	}
	var w wireStats
	for id, c := range by["client"] {
		w.requests++
		px, proxied := by["proxy"][id]
		rep, ok := by["grpcapi"][id]
		if ok {
			w.grpcapi = append(w.grpcapi, rep.ms())
		} else if rep, ok = by["httpapi"][id]; ok {
			w.httpapi = append(w.httpapi, rep.ms())
		}
		if !ok {
			continue
		}
		w.replica = append(w.replica, rep.ms())
		outer := rep
		if proxied {
			outer = px
			w.proxySelf = append(w.proxySelf, px.ms()-rep.ms())
		}
		w.transportSelf = append(w.transportSelf, c.ms()-outer.ms())
		if proxied == viaProxy {
			w.linked++
		}
	}
	return w
}

// wireStats holds per-request wire durations in milliseconds.
type wireStats struct {
	requests, linked int
	transportSelf    []float64 // client span minus the outermost server span
	proxySelf        []float64 // proxy span minus replica span
	replica          []float64 // replica span, either codec
	grpcapi, httpapi []float64
}
