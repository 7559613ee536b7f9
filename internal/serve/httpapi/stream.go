package httpapi

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"mvg/internal/serve/core"
)

// Streaming endpoint: POST /v1/models/{name}/stream carries an NDJSON
// dialogue over one request — each request-body line is one sample (a JSON
// number), and every time the model's sliding window crosses a hop
// boundary the server writes one prediction line back:
//
//	{"sample":640,"class":1,"proba":[0.11,0.89]}
//
// The window length is the model's training length; the hop is the ?hop=N
// query parameter (default 1). Prediction lines carry a "drift" field when
// the model has a drift baseline. The ?alert= parameter arms alert triggers
// (docs/alerting.md#trigger-specs; repeat the parameter — or percent-encode
// ';' — to arm several); their state transitions interleave as alert lines
// right after the prediction that caused them:
//
//	{"alert":"flip","from":"OK","to":"FIRING","sample":640,"value":1}
//
// and FIRING/RESOLVED transitions are also delivered to the server's alert
// sink. When the body ends, a terminal line
//
//	{"done":true,"samples":700,"predictions":8}
//
// closes the dialogue. Errors after the first prediction cannot change the
// HTTP status (headers are gone), so they surface as an {"error":...}
// line followed by end-of-stream; errors before any output use the normal
// status mapping. The stream is context-cancellable: a dropped client
// connection stops extraction at the next sample. The dialogue logic
// itself — hop prediction, alerts, idle and slow-reader eviction, write
// deadlines, drain — lives in core.RunDialogue, shared with the gRPC
// codec; this file is only the NDJSON framing. See docs/streaming.md for
// the protocol.

type streamErrorEvent struct {
	Error string `json:"error"`
}

// maxStreamLine bounds one NDJSON input line; a single float64 never needs
// more, so larger lines are protocol violations, not big requests.
const maxStreamLine = 4096

// streamReaderGrace is how long a finishing dialogue waits for its body
// reader to exit on its own before force-failing the read (see the join in
// handleStream). It bounds eviction latency, not request latency: clean
// dialogues never wait it out.
const streamReaderGrace = 50 * time.Millisecond

// maxStreamDrain bounds how much unread request body a dialogue that ended
// early (a fault, a bad sample, an eviction) reads and discards before its
// handler returns. Reaching EOF inside the handler matters: with full
// duplex enabled, net/http otherwise drains the body only after the
// handler returns, arms its end-of-body background read there, and then
// panics the connection goroutine ("invalid concurrent Body.Read call")
// as it waits for the next request, which resets the connection under the
// client's next request. The bound matches net/http's own post-handler
// drain; streamReaderGrace bounds the time.
const maxStreamDrain = 256 << 10

// drainBody reads and discards what is left of body, up to maxStreamDrain.
func drainBody(body io.Reader) {
	_, _ = io.CopyN(io.Discard, body, maxStreamDrain)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	hop := 1
	if raw := r.URL.Query().Get("hop"); raw != "" {
		var err error
		hop, err = strconv.Atoi(raw)
		if err != nil {
			writeError(w, core.Errorf(core.StatusBadRequest, "invalid hop %q: %v", raw, err))
			return
		}
	}
	// ';' joins trigger specs but is dropped from raw query strings by
	// net/url (Go 1.17+), so the parameter may be repeated instead —
	// ?alert=a&alert=b — or the ';' percent-encoded as %3B.
	d, err := s.engine.OpenDialogue(core.DialogueConfig{
		Model:  name,
		Hop:    hop,
		Alerts: r.URL.Query()["alert"],
		Tenant: core.TenantKey(r.RemoteAddr, r.URL.Query().Get(core.TenantParam), r.Header.Get(core.TenantHeader)),
	})
	if err != nil {
		writeError(w, err)
		return
	}
	defer d.Close()

	// The dialogue reads the body while writing the response; HTTP/1.1
	// needs full-duplex opted in. Errors (HTTP/2, recorders) are fine —
	// those transports already allow it or buffer the whole body.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	io := &ndjsonIO{w: w, rc: rc, enc: json.NewEncoder(w), lines: make(chan core.Samples)}

	// The body is consumed by a dedicated reader goroutine so the
	// dialogue loop can simultaneously watch the idle deadline, the
	// session's drain signal and the request context. The handler MUST
	// NOT return while this goroutine can still touch r.Body: after the
	// handler returns, net/http's connection teardown drains the body
	// itself, and a concurrent Read from here panics the connection
	// ("invalid concurrent Body.Read call"). So on every exit path the
	// deferred join below (1) closes stopReader to unblock a pending
	// channel send, (2) expires the connection read deadline to unblock a
	// Read parked on a silent client, and (3) waits for the goroutine to
	// finish before handing the connection back.
	stopReader := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer close(io.lines)
		// However the dialogue ends, consume the rest of the body before
		// the join releases the handler (see maxStreamDrain). After a
		// clean EOF this returns at once.
		defer drainBody(r.Body)
		sent := 0
		emit := func(chunk core.Samples) bool {
			select {
			case io.lines <- chunk:
				return true
			case <-stopReader:
				return false
			}
		}
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, maxStreamLine), maxStreamLine)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			x, err := strconv.ParseFloat(line, 64)
			if err != nil {
				// sent == samples the loop has pushed by the time this chunk
				// is received: the channel is unbuffered and ordered.
				emit(core.Samples{Err: core.Errorf(core.StatusBadRequest,
					"sample %d: not a number: %q", sent, line)})
				return
			}
			if !emit(core.Samples{Values: []float64{x}}) {
				return
			}
			sent++
		}
		if err := sc.Err(); err != nil {
			emit(core.Samples{Err: core.Errorf(core.StatusBadRequest, "reading stream: %v", err)})
		}
	}()
	defer func() {
		close(stopReader)
		// Fast path: the reader already hit EOF, or notices stopReader at
		// its next channel send and drains the rest of the body (data the
		// client has already sent reads in microseconds). The connection
		// stays pristine and reusable.
		select {
		case <-readerDone:
			return
		case <-time.After(streamReaderGrace):
		}
		// Slow path: the reader is parked inside r.Body.Read on a client
		// that stopped sending (idle eviction, drain, slow reader). Expire
		// the connection read deadline to fail that Read immediately —
		// this sacrifices connection reuse, but every such exit path is
		// already killing the dialogue. Transports without read-deadline
		// support (test recorders) return an error, which is fine: their
		// bodies are in-memory readers that never block.
		_ = rc.SetReadDeadline(time.Now())
		<-readerDone
	}()

	s.engine.RunDialogue(r.Context(), d, io)
}

// ndjsonIO adapts the NDJSON response side of a dialogue to
// core.DialogueIO: one JSON line per event, flushed immediately. The
// write deadlines and what a failed write means are RunDialogue's.
type ndjsonIO struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	enc   *json.Encoder
	lines chan core.Samples
	wrote bool
}

func (io *ndjsonIO) Samples() <-chan core.Samples { return io.lines }

func (io *ndjsonIO) SetWriteDeadline(t time.Time) error { return io.rc.SetWriteDeadline(t) }

// write puts one response line on the wire and flushes it. It returns the
// encode error, or a flush error that hit the write deadline; other flush
// errors (transports that cannot flush) are not write failures.
func (io *ndjsonIO) write(v any) error {
	if !io.wrote {
		io.w.Header().Set("Content-Type", "application/x-ndjson")
		io.w.WriteHeader(http.StatusOK)
		io.wrote = true
	}
	if err := io.enc.Encode(v); err != nil {
		return err
	}
	if err := io.rc.Flush(); errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	return nil
}

func (io *ndjsonIO) Emit(ev core.StreamEvent) error {
	if ev.Prediction != nil {
		return io.write(*ev.Prediction)
	}
	return io.write(*ev.Alert)
}

func (io *ndjsonIO) EmitDone(done core.StreamDone) error {
	return io.write(done)
}

// EmitError surfaces a terminal failure: before any output it can still
// set the HTTP status through the shared table; after the first line the
// headers are gone, so it becomes an {"error":...} line.
func (io *ndjsonIO) EmitError(err error) {
	if io.wrote {
		// Best effort: the dialogue ends whether or not this line lands.
		_ = io.write(streamErrorEvent{Error: err.Error()})
		return
	}
	writeError(io.w, err)
}
