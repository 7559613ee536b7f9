package core

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"time"

	"mvg"
	"mvg/internal/faults"
)

// A stream dialogue is the transport-agnostic half of the /stream
// endpoint and the StreamPredict rpc: samples go in one at a time, and
// every time the model's sliding window crosses a hop boundary a
// prediction event comes out, optionally interleaved with alert state
// transitions. The HTTP codec speaks it as NDJSON lines, the gRPC codec
// as StreamResponse frames; both feed the same Dialogue, so the numeric
// payloads — proba rows, drift scores, alert values — are identical
// bit-for-bit across transports. See docs/streaming.md for the protocol.

// StreamPrediction is one prediction event. Exported (with the NDJSON
// field names) because `mvgcli stream` speaks the identical protocol:
// sharing the type is what keeps the two from drifting.
type StreamPrediction struct {
	Sample int       `json:"sample"`
	Class  int       `json:"class"`
	Proba  []float64 `json:"proba"`
	// Drift is the window's drift/novelty score; present whenever the
	// model carries a drift baseline (docs/alerting.md#drift-score).
	Drift *float64 `json:"drift,omitempty"`
}

// StreamAlertEvent is one alert state transition, interleaved with the
// prediction events right after the prediction that caused it. Sample
// uses the same samples-consumed convention as prediction events.
type StreamAlertEvent struct {
	Alert  string  `json:"alert"` // trigger name
	From   string  `json:"from"`
	To     string  `json:"to"`
	Sample int     `json:"sample"`
	Value  float64 `json:"value"`
}

// StreamDone is the terminal event of a clean dialogue; it always carries
// samples and predictions, even when zero.
type StreamDone struct {
	Done        bool `json:"done"`
	Samples     int  `json:"samples"`
	Predictions int  `json:"predictions"`
	// Draining is set when the server closed the dialogue as part of a
	// graceful drain (SIGTERM): the stream ended cleanly, but not because
	// the client finished — reconnect to another replica to continue.
	Draining bool `json:"draining,omitempty"`
}

// StreamEvent is one dialogue output: exactly one of Prediction or Alert
// is set.
type StreamEvent struct {
	Prediction *StreamPrediction
	Alert      *StreamAlertEvent
}

// DialogueConfig opens a stream dialogue.
type DialogueConfig struct {
	// Model is the registry name to stream against.
	Model string
	// Hop is the prediction stride in samples (the codecs default it to 1
	// before calling; the model validates it).
	Hop int
	// Alerts are raw trigger specs (docs/alerting.md#trigger-specs); the
	// codec passes each spec or spec-group through and they are joined
	// with ';' here.
	Alerts []string
	// Tenant is the resolved quota key (TenantKey).
	Tenant string
}

// Dialogue is one live stream: a model stream, its stream slot, and the
// alert/metrics accounting around them. It is not safe for concurrent
// use — one goroutine pushes samples (RunDialogue).
type Dialogue struct {
	engine   *Engine
	name     string
	tenant   string
	stream   *mvg.Stream
	alerting bool
	preds    int
	closeFn  sync.Once
}

// OpenDialogue validates the stream parameters, arms any alert triggers,
// and claims a stream slot — in that order, so a malformed request costs
// no quota. Failures are typed: unknown model → 404/NOT_FOUND, bad hop or
// trigger spec → 400/INVALID_ARGUMENT, draining → 503/UNAVAILABLE, quota
// → 429/RESOURCE_EXHAUSTED (counted with the predict sheds).
func (e *Engine) OpenDialogue(cfg DialogueConfig) (*Dialogue, error) {
	m, err := e.Model(cfg.Model)
	if err != nil {
		return nil, err
	}
	stream, err := m.NewStream(cfg.Hop)
	if err != nil {
		return nil, err
	}
	alerting := false
	if specs := strings.Join(cfg.Alerts, ";"); specs != "" {
		triggers, err := mvg.ParseAlertTriggers(specs)
		if err != nil {
			return nil, err
		}
		if err := stream.SetAlerts(triggers...); err != nil {
			return nil, err
		}
		alerting = true
		for _, tr := range stream.AlertTriggers() {
			e.metrics.AlertStreamStarted(tr.Name)
		}
	}
	d := &Dialogue{engine: e, name: cfg.Model, tenant: cfg.Tenant, stream: stream, alerting: alerting}

	// Claim the slot last: this is where the global stream ceiling and the
	// per-tenant quota are enforced.
	if err := e.claimStream(cfg.Tenant); err != nil {
		d.endAlertGauges()
		return nil, err
	}
	return d, nil
}

// Done is closed when the engine asks the dialogue to finish (drain).
func (d *Dialogue) Done() <-chan struct{} { return d.engine.streamDrain }

// Pushed reports the number of samples consumed so far.
func (d *Dialogue) Pushed() int { return d.stream.Pushed() }

// DoneEvent builds the terminal event for the dialogue's current state.
func (d *Dialogue) DoneEvent(draining bool) StreamDone {
	return StreamDone{Done: true, Samples: d.stream.Pushed(), Predictions: d.preds, Draining: draining}
}

// Close releases the stream slot and the alert gauges. Idempotent;
// RunDialogue calls it, and codecs may defer it as a safety net.
func (d *Dialogue) Close() {
	d.closeFn.Do(func() {
		d.engine.releaseStream(d.tenant)
		d.endAlertGauges()
	})
}

// endAlertGauges closes out the live-stream alert gauges: whatever state
// each trigger ends in, this dialogue stops contributing to it.
func (d *Dialogue) endAlertGauges() {
	if !d.alerting {
		return
	}
	for _, st := range d.stream.Alerts() {
		d.engine.metrics.AlertStreamEnded(st.Name, st.State.String())
	}
}

// Push consumes one sample and returns the events it produced: none while
// the window fills or between hop boundaries, otherwise one prediction
// followed by any alert transitions it caused. FIRING/RESOLVED
// transitions are also delivered to the engine's alert sink. Errors are
// typed by the shared status table (non-finite sample → bad request).
func (d *Dialogue) Push(ctx context.Context, x float64) ([]StreamEvent, error) {
	e := d.engine
	ready, err := d.stream.Push(x)
	if err != nil {
		return nil, err
	}
	if !ready {
		return nil, nil
	}
	if err := e.faults.Fire(ctx, faults.PointStreamPredict); err != nil {
		return nil, err
	}
	pt, err := d.stream.PredictAlert(ctx)
	if err != nil {
		return nil, err
	}
	d.preds++
	pred := &StreamPrediction{Sample: d.stream.Pushed(), Class: pt.Class, Proba: pt.Proba}
	if pt.HasDrift {
		pred.Drift = &pt.Drift
	}
	events := make([]StreamEvent, 0, 1+len(pt.Transitions))
	events = append(events, StreamEvent{Prediction: pred})
	for _, tr := range pt.Transitions {
		e.metrics.AlertTransition(tr.Trigger, tr.From.String(), tr.To.String())
		// The wire and webhook sample convention is samples-consumed,
		// matching prediction events; the library's Transition carries
		// the window-closing sample index, one less.
		events = append(events, StreamEvent{Alert: &StreamAlertEvent{
			Alert: tr.Trigger, From: tr.From.String(), To: tr.To.String(),
			Sample: tr.Sample + 1, Value: tr.Value,
		}})
		if e.alertSink != nil && d.alerting && (tr.To == mvg.AlertFiring || tr.To == mvg.AlertResolved) {
			e.alertSink.Deliver(mvg.AlertEvent{
				Model: d.name, Trigger: tr.Trigger,
				From: tr.From.String(), To: tr.To.String(),
				Sample: tr.Sample + 1, Value: tr.Value, At: time.Now().UTC(),
			})
		}
	}
	return events, nil
}

// Samples is one unit of inbound work a transport hands to RunDialogue: a
// chunk of parsed sample values, or a terminal (already typed) read
// error. The zero-value chunk is a no-op.
type Samples struct {
	Values []float64
	Err    error
}

// DialogueIO is the transport half of a running dialogue. Samples is the
// inbound channel, closed at the client's clean end of stream. Emit and
// EmitDone deliver events and return the raw write error; EmitError
// delivers the terminal failure using the transport's error convention.
// SetWriteDeadline bounds the writes that follow it. The transport only
// frames: RunDialogue decides what a write error means.
type DialogueIO interface {
	Samples() <-chan Samples
	Emit(ev StreamEvent) error
	EmitDone(done StreamDone) error
	EmitError(err error)
	SetWriteDeadline(t time.Time) error
}

// RunDialogue pumps io's samples through d until end of stream, a
// terminal error, a graceful drain, or an eviction — the one dialogue
// loop both codecs share, so eviction policy and drain semantics cannot
// differ between transports. Every write gets a fresh write deadline: a
// client that reads, however slowly, keeps the dialogue alive; one that
// stops reading lets it expire once the buffers fill. It closes d before
// returning.
func (e *Engine) RunDialogue(ctx context.Context, d *Dialogue, io DialogueIO) {
	defer d.Close()
	out := dialogueWriter{e: e, io: io}

	var idleTimer *time.Timer
	var idleC <-chan time.Time
	if e.streamIdle > 0 {
		idleTimer = time.NewTimer(e.streamIdle)
		defer idleTimer.Stop()
		idleC = idleTimer.C
	}

	for {
		select {
		case <-ctx.Done():
			out.fail(ctx.Err())
			return
		case <-d.Done():
			// Graceful drain: close the dialogue cleanly so the client
			// knows everything sent so far was processed.
			out.done(d.DoneEvent(true))
			return
		case <-idleC:
			e.metrics.StreamEvicted(EvictIdle)
			out.fail(Errorf(StatusEvicted,
				"stream evicted: no sample received within the %v idle deadline", e.streamIdle))
			return
		case chunk, ok := <-io.Samples():
			if !ok {
				out.done(d.DoneEvent(false))
				return
			}
			if chunk.Err != nil {
				out.fail(chunk.Err)
				return
			}
			if idleTimer != nil {
				if !idleTimer.Stop() {
					select {
					case <-idleC:
					default:
					}
				}
				idleTimer.Reset(e.streamIdle)
			}
			for _, x := range chunk.Values {
				events, err := d.Push(ctx, x)
				if err != nil {
					out.fail(err)
					return
				}
				for _, ev := range events {
					if !out.event(ev) {
						return
					}
				}
			}
		}
	}
}

// dialogueWriter is RunDialogue's output side: every write under a fresh
// deadline, and one policy for a write that fails.
type dialogueWriter struct {
	e  *Engine
	io DialogueIO
}

func (w dialogueWriter) renew() {
	if w.e.streamWrite > 0 {
		_ = w.io.SetWriteDeadline(time.Now().Add(w.e.streamWrite))
	}
}

// event writes one event and reports whether the dialogue may go on.
func (w dialogueWriter) event(ev StreamEvent) bool {
	w.renew()
	return w.settle(w.io.Emit(ev))
}

func (w dialogueWriter) done(done StreamDone) {
	w.renew()
	w.settle(w.io.EmitDone(done))
}

func (w dialogueWriter) fail(err error) {
	w.renew()
	w.io.EmitError(err)
}

// settle reports whether a write succeeded. One that died on the deadline
// is a client that stopped reading: the stream is evicted, counted under
// slow_reader, and told so. Any other write error is the client
// disconnecting, which needs no farewell.
func (w dialogueWriter) settle(err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		w.e.metrics.StreamEvicted(EvictSlowReader)
		w.fail(Errorf(StatusEvicted,
			"stream evicted: slow reader (no progress within %v write deadline)", w.e.streamWrite))
	}
	return false
}
