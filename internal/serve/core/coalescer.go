package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mvg"
)

// ErrCoalescerClosed is returned by Coalescer.Predict after Close: the
// server is draining and no longer accepts work.
var ErrCoalescerClosed = errors.New("serve: coalescer closed")

// DefaultWindow and DefaultMaxBatch are the coalescing defaults used when
// CoalescerConfig leaves them zero. The window bounds only the wait of a
// request queued behind a busy model, which often flushes sooner, when
// the running batch finishes; 64 matches the batch size
// BenchmarkExtractBatch pins the engine's throughput on.
const (
	DefaultWindow   = 2 * time.Millisecond
	DefaultMaxBatch = 64
)

// Coalescer merges concurrent single-series prediction requests into
// batches for one model, so the parallel engine's per-batch scratch reuse
// is amortized across HTTP clients. A request that finds no batch of the
// model predicting is flushed at once. Requests that arrive while a batch
// predicts queue, and flush together when the model goes idle, when
// MaxBatch requests are pending, or when the first of them has waited
// Window, whichever comes first. Each caller gets back exactly the
// class-probability row for its own series.
//
// Determinism contract: feature extraction and classification are pure
// per-series functions (docs/concurrency.md), so the row a request
// receives from a coalesced PredictProba call is byte-identical to the
// row a standalone single-series call would return. Coalescing is
// therefore invisible to clients except through latency; the stress test
// in coalescer_test.go pins this.
type Coalescer struct {
	window   time.Duration
	maxBatch int
	source   func() (*mvg.Model, error)
	observe  func(batchSize int, reason string)

	reqs chan coalRequest

	mu     sync.RWMutex // guards closed and the reqs channel close
	closed bool

	inFlight sync.WaitGroup // running batch predictions
	// running counts the batches flushed and not yet finished: the run
	// loop adds each batch it flushes, and a batch takes itself off and
	// wakes the loop through finished before fanning its rows back. The
	// one-slot buffer and a non-blocking send keep a batch from ever
	// waiting on the loop; one pending wake-up covers any number of
	// finishes, since the loop re-reads running.
	running  atomic.Int64
	finished chan struct{}
	done     chan struct{} // run loop exited
}

type coalRequest struct {
	ctx    context.Context // the submitting request's context
	series []float64
	out    chan coalResult
}

type coalResult struct {
	proba []float64
	err   error
}

// CoalescerConfig configures NewCoalescer.
type CoalescerConfig struct {
	// Window is the maximum time a request queued behind a busy model
	// waits before its batch is flushed (default DefaultWindow). A
	// request that finds the model idle does not wait.
	Window time.Duration
	// MaxBatch flushes a batch as soon as this many requests are pending
	// (default DefaultMaxBatch).
	MaxBatch int
	// Observe, if set, is called with the size and flush reason
	// (FlushIdle, FlushWindow, FlushFull, FlushClose) of every flushed
	// batch (wired to Metrics.ObserveBatch by the server).
	Observe func(batchSize int, reason string)
}

// NewCoalescer starts a coalescer whose batches predict on the model
// returned by source. source is consulted at flush time, not submit time,
// so a registry Reload between enqueue and flush serves the batch on the
// freshest model.
func NewCoalescer(source func() (*mvg.Model, error), cfg CoalescerConfig) *Coalescer {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	c := &Coalescer{
		window:   cfg.Window,
		maxBatch: cfg.MaxBatch,
		source:   source,
		observe:  cfg.Observe,
		reqs:     make(chan coalRequest, 4*cfg.MaxBatch),
		finished: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go c.run()
	return c
}

// Predict submits one series and blocks until its probability row is
// available, the context is cancelled, or the coalescer is closed. The
// context travels with the request: a caller that cancels before its
// batch flushes (a client disconnecting while queued behind a busy model)
// has its slot dropped at flush time, so abandoned requests never cost a
// prediction.
func (c *Coalescer) Predict(ctx context.Context, series []float64) ([]float64, error) {
	req := coalRequest{ctx: ctx, series: series, out: make(chan coalResult, 1)}

	// Holding the read lock across the send pairs with Close's write lock:
	// once Close observes the lock free and sets closed, no sender can be
	// mid-enqueue, so closing c.reqs below never races a send.
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, ErrCoalescerClosed
	}
	select {
	case c.reqs <- req:
		c.mu.RUnlock()
	case <-ctx.Done():
		c.mu.RUnlock()
		return nil, ctx.Err()
	}

	select {
	case res := <-req.out:
		return res.proba, res.err
	case <-ctx.Done():
		// The slot is dropped when its batch flushes (predictBatch checks
		// req.ctx); the buffered out channel lets the flush goroutine
		// deliver the cancellation notice without blocking on the departed
		// caller.
		return nil, ctx.Err()
	}
}

// Close stops accepting requests, flushes the pending batch, waits for
// every in-flight batch prediction to deliver its results, and returns.
// Requests accepted before Close always receive a result — this is the
// drain mvgserve runs on SIGTERM. Close is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	close(c.reqs)
	c.mu.Unlock()
	<-c.done
}

// run is the dispatch loop: it owns the pending slice and decides when to
// flush. Batches predict on their own goroutines so a slow prediction
// never blocks the assembly of the next batch.
func (c *Coalescer) run() {
	defer close(c.done)
	var (
		pending []coalRequest
		timer   *time.Timer
		timeout <-chan time.Time
	)
	// disarm stops the timer and drains a concurrently-delivered fire, so
	// a reused timer channel never holds a stale tick that would flush the
	// next batch prematurely.
	disarm := func() {
		if timer != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	flush := func(reason string) {
		if len(pending) == 0 {
			return
		}
		disarm()
		batch := pending
		pending = nil
		timeout = nil
		c.running.Add(1)
		c.inFlight.Add(1)
		go func() {
			defer c.inFlight.Done()
			results := c.predictBatch(batch, reason)
			// The batch is finished before any caller hears back, so a
			// caller's next request finds the model idle.
			c.running.Add(-1)
			select {
			case c.finished <- struct{}{}:
			default: // a wake-up is already pending
			}
			for i, req := range batch {
				req.out <- results[i]
			}
		}()
	}
	for {
		select {
		case req, ok := <-c.reqs:
			if !ok {
				flush(FlushClose)
				c.inFlight.Wait()
				return
			}
			pending = append(pending, req)
			switch {
			case len(pending) >= c.maxBatch:
				flush(FlushFull)
			case c.running.Load() == 0:
				flush(FlushIdle)
			case len(pending) == 1:
				if timer == nil {
					timer = time.NewTimer(c.window)
				} else {
					timer.Reset(c.window)
				}
				timeout = timer.C
			}
		case <-c.finished:
			if c.running.Load() == 0 {
				flush(FlushIdle)
			}
		case <-timeout:
			flush(FlushWindow)
		}
	}
}

// predictBatch runs one coalesced batch and returns each request's result,
// index for index. Requests whose context was cancelled while the batch
// was assembling are dropped here, before any model work: the caller has
// already stopped waiting (its Predict returned ctx.Err()), so computing
// its row would only burn CPU. A batch whose every slot was abandoned
// skips the model entirely.
func (c *Coalescer) predictBatch(batch []coalRequest, reason string) []coalResult {
	results := make([]coalResult, len(batch))
	live := make([]int, 0, len(batch))
	for i, req := range batch {
		if err := req.ctx.Err(); err != nil {
			results[i].err = err
			continue
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return results
	}
	if c.observe != nil {
		c.observe(len(live), reason)
	}
	model, err := c.source()
	if err != nil {
		for _, i := range live {
			results[i].err = err
		}
		return results
	}
	// Re-validate lengths against the flush-time model: handlers validated
	// against a submit-time snapshot, and a reload in between may have
	// changed SeriesLen. Only the mismatching requests fail; the rest of
	// the batch predicts normally.
	want := model.SeriesLen()
	series := make([][]float64, 0, len(live))
	idx := live[:0]
	for _, i := range live {
		if n := len(batch[i].series); n != want {
			results[i].err = Errorf(StatusBadRequest,
				"series has %d points, model expects %d (model reloaded?)", n, want)
			continue
		}
		series = append(series, batch[i].series)
		idx = append(idx, i)
	}
	if len(series) == 0 {
		return results
	}
	// The batch predicts under its own background context: the work is
	// shared by every surviving caller, so one caller's cancellation must
	// not abort the others' rows. Individual departures were already
	// handled above.
	proba, err := model.PredictProba(context.Background(), series)
	if err == nil && len(proba) != len(series) {
		err = errors.New("serve: model returned wrong row count")
	}
	for k, i := range idx {
		if err != nil {
			results[i].err = err
			continue
		}
		results[i].proba = proba[k]
	}
	return results
}
