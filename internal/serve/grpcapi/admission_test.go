package grpcapi_test

// gRPC twins of httpapi's TestShed429 and TestRequestDeadline503: unary
// calls run in the same admitted scope as HTTP requests, so a shed is
// RESOURCE_EXHAUSTED where HTTP says 429 and the server's own deadline is
// UNAVAILABLE where HTTP says 503, on the same counters.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mvg/api/mvgpb"
	"mvg/internal/faults"
	"mvg/internal/grpcx"
	"mvg/internal/serve/core"
	"mvg/internal/serve/servetest"
)

// requireCode checks that err is a gRPC status with the given code and a
// message containing text.
func requireCode(t *testing.T, err error, code grpcx.Code, text string) {
	t.Helper()
	var st *grpcx.Status
	if !errors.As(err, &st) || st.Code != code {
		t.Fatalf("err = %v, want code %v", err, code)
	}
	if !strings.Contains(st.Message, text) {
		t.Fatalf("status message = %q, want it to contain %q", st.Message, text)
	}
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedGrpc: with one in-flight slot and no queue, a Predict that
// arrives while another holds the slot is shed with RESOURCE_EXHAUSTED
// and counted, and the slot serves again once it is free.
func TestShedGrpc(t *testing.T) {
	inj := faults.New()
	f := newParityFixture(t, core.Config{
		Window:      time.Millisecond,
		MaxInFlight: 1,
		MaxQueue:    0,
		Faults:      inj,
	})
	req := &mvgpb.PredictRequest{Model: "demo", Series: servetest.Inputs(1, 54)[0]}

	// Park the first call at the fault point (post-admission) so it holds
	// the only slot.
	inj.Delay(faults.PointPredict, time.Hour) // cut short by cancel below
	ctx, cancel := context.WithCancel(context.Background())
	held := make(chan struct{})
	go func() {
		defer close(held)
		f.grpc.Invoke(ctx, mvgpb.MvgMethodPredict, nil, req, new(mvgpb.PredictResponse))
	}()
	waitFor(t, "first call to hold the slot", func() bool { return f.engine.HealthSnapshot().InFlight == 1 })

	// The probes are bounded so that a broken admission fails the test
	// instead of parking behind the held call's fault.
	probe, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	err := f.grpc.Invoke(probe, mvgpb.MvgMethodPredict, nil, req, new(mvgpb.PredictResponse))
	requireCode(t, err, grpcx.ResourceExhausted, "shed")
	if got := f.engine.Metrics().ShedTotal(); got != 1 {
		t.Fatalf("shed_total = %d, want 1", got)
	}

	cancel()
	<-held
	waitFor(t, "slot release", func() bool { return f.engine.HealthSnapshot().InFlight == 0 })
	inj.Reset()
	if err := f.grpc.Invoke(context.Background(), mvgpb.MvgMethodPredict, nil, req, new(mvgpb.PredictResponse)); err != nil {
		t.Fatalf("post-overload Predict: %v", err)
	}
}

// TestRequestDeadlineGrpc: a single or batch predict that cannot finish
// inside the request timeout is UNAVAILABLE (the server's fault, not the
// client's), and both are counted as request timeouts.
func TestRequestDeadlineGrpc(t *testing.T) {
	inj := faults.New()
	f := newParityFixture(t, core.Config{
		Window:         time.Millisecond,
		RequestTimeout: 50 * time.Millisecond,
		Faults:         inj,
	})
	// Bounded so that a missing server deadline fails the test instead of
	// sleeping out the fault; the server's 50ms deadline comes first.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	inj.Delay(faults.PointPredict, time.Hour) // the deadline cuts the sleep short
	err := f.grpc.Invoke(ctx, mvgpb.MvgMethodPredict, nil,
		&mvgpb.PredictRequest{Model: "demo", Series: servetest.Inputs(1, 55)[0]}, new(mvgpb.PredictResponse))
	requireCode(t, err, grpcx.Unavailable, "deadline")
	if got := f.engine.Metrics().RequestTimeoutTotal(); got != 1 {
		t.Fatalf("request_timeout_total = %d, want 1", got)
	}

	inj.Reset()
	inj.Delay(faults.PointBatchPredict, time.Hour)
	breq := &mvgpb.PredictBatchRequest{Model: "demo"}
	for _, s := range servetest.Inputs(2, 56) {
		breq.Batch = append(breq.Batch, &mvgpb.Series{Values: s})
	}
	err = f.grpc.Invoke(ctx, mvgpb.MvgMethodPredictBatch, nil, breq, new(mvgpb.PredictBatchResponse))
	requireCode(t, err, grpcx.Unavailable, "deadline")
	if got := f.engine.Metrics().RequestTimeoutTotal(); got != 2 {
		t.Fatalf("request_timeout_total = %d, want 2", got)
	}
}
