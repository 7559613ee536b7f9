package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrShed is returned by the admission limiter when both the in-flight
// slots and the bounded wait queue are full. It maps to 429 over HTTP and
// RESOURCE_EXHAUSTED over gRPC, with a Retry-After hint: the request was
// never admitted, cost no model work, and is safe for the client (or a
// fronting proxy) to retry elsewhere or later. See docs/robustness.md for
// the shed semantics.
var ErrShed = errors.New("serve: overloaded, request shed")

// errRequestDeadline is the cancellation cause installed by
// Engine.Admitted. Its presence in context.Cause distinguishes
// "the server's own -request-timeout fired" (503: the server failed the
// request) from "the client went away" (499) when a handler surfaces a
// context error.
var errRequestDeadline = errors.New("serve: request deadline exceeded")

// DefaultRetryAfter is the Retry-After hint attached to shed and timeout
// responses when Config.RetryAfter is zero.
const DefaultRetryAfter = time.Second

// limiter is the predict-path admission controller: a counting semaphore
// of maxInFlight slots fronted by a bounded wait queue of maxQueue
// callers. A request beyond both bounds is shed immediately — deciding to
// reject is O(1) and allocation-free, which is what keeps an overloaded
// server responsive enough to say 429.
//
// The limiter deliberately sits outside the extraction hot path: it
// guards handler entry, never the per-series kernels, so admission
// control cannot perturb the benchmarked alloc counts.
type limiter struct {
	maxInFlight int
	maxQueue    int
	sem         chan struct{}
	waiting     atomic.Int64
}

// newLimiter builds a limiter; maxInFlight <= 0 disables admission
// control entirely (the returned nil limiter admits everything).
func newLimiter(maxInFlight, maxQueue int) *limiter {
	if maxInFlight <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &limiter{
		maxInFlight: maxInFlight,
		maxQueue:    maxQueue,
		sem:         make(chan struct{}, maxInFlight),
	}
}

// acquire claims an in-flight slot, waiting in the bounded queue if the
// server is busy. It returns ErrShed when the queue is full, or the
// context error if the caller's deadline fires while queued. The caller
// must invoke release exactly once after the work completes.
func (l *limiter) acquire(ctx context.Context) (release func(), err error) {
	if l == nil {
		return func() {}, nil
	}
	release = func() { <-l.sem }
	select {
	case l.sem <- struct{}{}:
		return release, nil
	default:
	}
	// All slots busy: join the bounded wait queue.
	if n := l.waiting.Add(1); n > int64(l.maxQueue) {
		l.waiting.Add(-1)
		return nil, ErrShed
	}
	defer l.waiting.Add(-1)
	select {
	case l.sem <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// saturated reports whether a new request would be shed right now: every
// slot busy and the queue full. This is the "shedding" readiness
// dimension /healthz exposes for fleet health checks.
func (l *limiter) saturated() bool {
	if l == nil {
		return false
	}
	return len(l.sem) == l.maxInFlight && l.waiting.Load() >= int64(l.maxQueue)
}

// depth reports the current in-flight and queued request counts.
func (l *limiter) depth() (inFlight, queued int) {
	if l == nil {
		return 0, 0
	}
	return len(l.sem), int(l.waiting.Load())
}
