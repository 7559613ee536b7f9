package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"mvg"
	"mvg/internal/grpcx"
)

// StatusClientClosedRequest is the nginx convention for "the client went
// away before the response was ready" — the status a cancelled request
// context maps to. The client never sees it; it exists for access logs
// and metrics, where it keeps abandoned requests out of the 5xx error
// rate.
const StatusClientClosedRequest = 499

// Status is the transport mapping of one error class: the HTTP status
// code and the gRPC status code a failure surfaces as. Both codecs render
// from this one table (docs/serving.md#status-mapping), which is what
// keeps a failure's meaning identical across transports — a shed is
// always retryable, a shape mismatch is always the caller's bug, no
// matter how the request arrived.
type Status struct {
	HTTP int
	GRPC grpcx.Code
}

// The shared status table. Every serving-path failure maps onto exactly
// one of these rows.
var (
	// StatusOK is the success row (present for table completeness).
	StatusOK = Status{HTTP: 200, GRPC: grpcx.OK}
	// StatusBadRequest: the caller's request is malformed — wrong series
	// length, bad config, non-finite sample, unready stream, bad trigger
	// spec. Retrying unchanged will fail identically.
	StatusBadRequest = Status{HTTP: 400, GRPC: grpcx.InvalidArgument}
	// StatusNotFound: the named model is not in the registry.
	StatusNotFound = Status{HTTP: 404, GRPC: grpcx.NotFound}
	// StatusShed: admission control or a stream quota rejected the request
	// before any model work; safe to retry after the hint.
	StatusShed = Status{HTTP: 429, GRPC: grpcx.ResourceExhausted}
	// StatusEvicted: the server evicted a stream dialogue — idle, or a
	// slow reader.
	StatusEvicted = Status{HTTP: 408, GRPC: grpcx.DeadlineExceeded}
	// StatusClientGone: the client cancelled; nobody is listening for the
	// response.
	StatusClientGone = Status{HTTP: StatusClientClosedRequest, GRPC: grpcx.Canceled}
	// StatusUnavailable: the server cannot serve right now — draining,
	// closed, or past its own request deadline. Retry another replica.
	StatusUnavailable = Status{HTTP: 503, GRPC: grpcx.Unavailable}
	// StatusInternal: a server-side fault.
	StatusInternal = Status{HTTP: 500, GRPC: grpcx.Internal}
)

// Error is a serving-layer error carrying its transport mapping, and
// optionally a retry hint (429/503 responses advertise it as Retry-After
// over HTTP).
type Error struct {
	Status     Status
	RetryAfter time.Duration // zero = no hint
	msg        string
}

func (e *Error) Error() string { return e.msg }

// Errorf builds a typed serving error.
func Errorf(st Status, format string, args ...any) *Error {
	return &Error{Status: st, msg: fmt.Sprintf(format, args...)}
}

// StatusOf maps any serving-path error onto the shared table: explicit
// *Errors keep their row, the public mvg error taxonomy (docs/api.md)
// distinguishes caller mistakes (shape/length/config problems → bad
// request) from server faults, a closed coalescer or pipeline means the
// server is going away, and a done request context means the client is.
func StatusOf(err error) Status {
	var se *Error
	switch {
	case err == nil:
		return StatusOK
	case errors.As(err, &se):
		return se.Status
	case errors.Is(err, ErrShed):
		return StatusShed
	case errors.Is(err, ErrCoalescerClosed), errors.Is(err, mvg.ErrPipelineClosed):
		return StatusUnavailable
	case errors.Is(err, mvg.ErrShapeMismatch),
		errors.Is(err, mvg.ErrSeriesTooShort),
		errors.Is(err, mvg.ErrBadConfig),
		errors.Is(err, mvg.ErrNonFiniteSample),
		errors.Is(err, mvg.ErrStreamNotReady),
		errors.Is(err, mvg.ErrBadAlertTrigger),
		errors.Is(err, mvg.ErrNoDriftBaseline):
		return StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return StatusClientGone
	}
	return StatusInternal
}

// RetryHint extracts the retry-after hint from a typed error, or zero.
func RetryHint(err error) time.Duration {
	var se *Error
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// RetryAfterSeconds renders a retry hint as a Retry-After header value:
// whole seconds, rounded up, at least 1. The HTTP codec and mvgproxy
// both render their hints through it, so a client sees one format.
func RetryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
