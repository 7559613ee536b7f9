package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvg"
)

func modelSource(m *mvg.Model) func() (*mvg.Model, error) {
	return func() (*mvg.Model, error) { return m, nil }
}

// heldModel is a model source whose first call blocks until release. The
// batch making that call stays in flight, so the model is busy and later
// requests queue behind it instead of flushing at once.
type heldModel struct {
	model    *mvg.Model
	calls    atomic.Int64
	entered  chan struct{} // closed when the first call starts
	released chan struct{}
	once     sync.Once
}

func holdModel(m *mvg.Model) *heldModel {
	return &heldModel{model: m, entered: make(chan struct{}), released: make(chan struct{})}
}

func (h *heldModel) source() (*mvg.Model, error) {
	if h.calls.Add(1) == 1 {
		close(h.entered)
		<-h.released
	}
	return h.model, nil
}

// release lets the held call return. It is idempotent, so a test can
// defer it to keep a failing test's Close from waiting forever.
func (h *heldModel) release() { h.once.Do(func() { close(h.released) }) }

// holdBatch sends one request through c and returns once its batch holds
// the model. The request's Predict error arrives on the returned channel
// after release.
func holdBatch(t *testing.T, c *Coalescer, h *heldModel, series []float64) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Predict(context.Background(), series)
		errc <- err
	}()
	select {
	case <-h.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first batch never reached the model")
	}
	return errc
}

// requireHeld fails the test if the held batch has already answered.
func requireHeld(t *testing.T, heldErr <-chan error) {
	t.Helper()
	select {
	case err := <-heldErr:
		t.Fatalf("held batch answered early: %v", err)
	default:
	}
}

// submit hands one request to c's run loop the way Predict does and
// returns once the loop has handled it, so the request is pending (or
// flushed) before the test moves on. The result arrives on the returned
// channel.
//
// Seeing the loop take the request is not enough: it could still be
// deciding whether to flush when the test releases a held batch. So
// submit then sends the loop a spurious wake-up, which it tolerates (it
// re-reads running), and waits for the loop to take that too; the loop
// takes it only after it is done with the request.
func submit(t *testing.T, c *Coalescer, ctx context.Context, series []float64) <-chan coalResult {
	t.Helper()
	out := make(chan coalResult, 1)
	c.reqs <- coalRequest{ctx: ctx, series: series, out: out}
	waitUntil(t, "the run loop to take the request", func() bool { return len(c.reqs) == 0 })
	c.finished <- struct{}{}
	waitUntil(t, "the run loop to take the wake-up", func() bool { return len(c.finished) == 0 })
	return out
}

// await returns a submitted request's result.
func await(t *testing.T, out <-chan coalResult) coalResult {
	t.Helper()
	select {
	case res := <-out:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("a submitted request got no result")
		return coalResult{}
	}
}

type flushed struct {
	size   int
	reason string
}

// recordFlushes returns an Observe hook and the channel it reports every
// flushed batch on. The buffer holds more batches than any test flushes,
// so the hook never blocks a batch.
func recordFlushes() (func(int, string), <-chan flushed) {
	ch := make(chan flushed, 64)
	return func(size int, reason string) { ch <- flushed{size, reason} }, ch
}

// requireFlush waits for the next flushed batch and checks its size and
// reason.
func requireFlush(t *testing.T, flushes <-chan flushed, size int, reason string) {
	t.Helper()
	select {
	case f := <-flushes:
		if f.size != size || f.reason != reason {
			t.Fatalf("flushed batch of %d (%s), want %d (%s)", f.size, f.reason, size, reason)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no batch flushed, want %d (%s)", size, reason)
	}
}

// TestCoalescerStress is the acceptance stress test: many goroutines
// hammer the coalescer with single-series requests, and every returned
// probability row must be byte-identical to a sequential single-series
// PredictProba call on the same model. Run under -race (CI always does).
func TestCoalescerStress(t *testing.T) {
	model := testModel(t)
	const distinct, goroutines, perG = 12, 8, 25
	inputs := testInputs(distinct, 4)

	// Sequential reference, one series at a time.
	ref := make([][]float64, distinct)
	for i, s := range inputs {
		rows, err := model.PredictProba(context.Background(), [][]float64{s})
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = rows[0]
	}

	var batches, coalesced atomic.Int64
	c := NewCoalescer(modelSource(model), CoalescerConfig{
		Window:   500 * time.Microsecond,
		MaxBatch: 8,
		Observe: func(size int, _ string) {
			batches.Add(1)
			coalesced.Add(int64(size))
		},
	})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				idx := (g*perG + k) % distinct
				proba, err := c.Predict(context.Background(), inputs[idx])
				if err != nil {
					errs <- err
					return
				}
				for j := range proba {
					if proba[j] != ref[idx][j] {
						errs <- errors.New("coalesced row differs from sequential prediction")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(goroutines * perG)
	if coalesced.Load() != total {
		t.Errorf("observed %d coalesced requests, want %d", coalesced.Load(), total)
	}
	if b := batches.Load(); b == 0 || b > total {
		t.Errorf("batches = %d out of %d requests", b, total)
	} else if b == total {
		t.Logf("warning: no coalescing happened (%d batches for %d requests)", b, total)
	} else {
		t.Logf("%d requests coalesced into %d batches", total, b)
	}
}

// TestCoalescerMaxBatchFlush pins the "max-batch, whichever first" rule:
// with an hour-long window, a full batch queued behind a busy model must
// still flush immediately.
func TestCoalescerMaxBatchFlush(t *testing.T) {
	model := testModel(t)
	const maxBatch = 4
	h := holdModel(model)
	observe, flushes := recordFlushes()
	c := NewCoalescer(h.source, CoalescerConfig{Window: time.Hour, MaxBatch: maxBatch, Observe: observe})
	defer c.Close()
	defer h.release()
	heldErr := holdBatch(t, c, h, testInputs(1, 5)[0])
	requireFlush(t, flushes, 1, FlushIdle)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	inputs := testInputs(maxBatch, 5)
	var wg sync.WaitGroup
	errs := make(chan error, maxBatch)
	for i := 0; i < maxBatch; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Predict(ctx, inputs[i]); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("full batch did not flush before the window: %v", err)
	}
	requireHeld(t, heldErr)
	requireFlush(t, flushes, maxBatch, FlushFull)
	h.release()
	if err := <-heldErr; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

// TestCoalescerWindowFlush pins the other side: a request queued behind a
// busy model must not wait for a full batch, nor for the busy batch to
// finish, past the window.
func TestCoalescerWindowFlush(t *testing.T) {
	model := testModel(t)
	h := holdModel(model)
	observe, flushes := recordFlushes()
	c := NewCoalescer(h.source, CoalescerConfig{Window: 20 * time.Millisecond, MaxBatch: 64, Observe: observe})
	defer c.Close()
	defer h.release()
	heldErr := holdBatch(t, c, h, testInputs(1, 6)[0])
	requireFlush(t, flushes, 1, FlushIdle)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Predict(ctx, testInputs(2, 6)[1]); err != nil {
		t.Fatalf("queued request did not flush on the window: %v", err)
	}
	requireHeld(t, heldErr)
	requireFlush(t, flushes, 1, FlushWindow)
	h.release()
	if err := <-heldErr; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

// TestCoalescerIdleFlush pins the idle rule: with an hour-long window,
// sequential requests each find the model idle and flush at once, as
// batches of one.
func TestCoalescerIdleFlush(t *testing.T) {
	model := testModel(t)
	observe, flushes := recordFlushes()
	c := NewCoalescer(modelSource(model), CoalescerConfig{Window: time.Hour, MaxBatch: 64, Observe: observe})
	defer c.Close()

	const n = 5
	for i, series := range testInputs(n, 12) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := c.Predict(ctx, series)
		cancel()
		if err != nil {
			t.Fatalf("request %d on an idle model: %v", i, err)
		}
		requireFlush(t, flushes, 1, FlushIdle)
	}
}

// TestCoalescerFlushOnFinish: requests queued behind a busy model flush
// together the moment it finishes, long before an hour-long window, and
// their rows match standalone predictions.
func TestCoalescerFlushOnFinish(t *testing.T) {
	model := testModel(t)
	h := holdModel(model)
	observe, flushes := recordFlushes()
	c := NewCoalescer(h.source, CoalescerConfig{Window: time.Hour, MaxBatch: 64, Observe: observe})
	defer c.Close()
	defer h.release()
	heldErr := holdBatch(t, c, h, testInputs(1, 13)[0])
	requireFlush(t, flushes, 1, FlushIdle)

	const k = 5
	inputs := testInputs(k, 13)
	want, err := model.PredictProba(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]<-chan coalResult, k)
	for i, s := range inputs {
		outs[i] = submit(t, c, context.Background(), s)
	}
	requireHeld(t, heldErr)
	select {
	case f := <-flushes:
		t.Fatalf("batch of %d (%s) flushed while the model was busy", f.size, f.reason)
	default:
	}

	h.release()
	requireFlush(t, flushes, k, FlushIdle)
	for i, out := range outs {
		res := await(t, out)
		if res.err != nil {
			t.Fatalf("queued request %d: %v", i, res.err)
		}
		requireSameRow(t, want[i], res.proba)
	}
	if err := <-heldErr; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

// TestCoalescerCloseDrains verifies the SIGTERM drain contract: requests
// accepted before Close get real results, requests after get
// ErrCoalescerClosed. Close flushes the requests queued behind a busy
// model and returns only after the busy batch finishes.
func TestCoalescerCloseDrains(t *testing.T) {
	model := testModel(t)
	h := holdModel(model)
	observe, flushes := recordFlushes()
	c := NewCoalescer(h.source, CoalescerConfig{Window: time.Hour, MaxBatch: 64, Observe: observe})
	defer h.release()
	heldErr := holdBatch(t, c, h, testInputs(1, 7)[0])
	requireFlush(t, flushes, 1, FlushIdle)

	const n = 5
	inputs := testInputs(n, 7)
	outs := make([]<-chan coalResult, n)
	for i := range inputs {
		outs[i] = submit(t, c, context.Background(), inputs[i])
	}
	// The hour-long window and the held model keep the requests pending
	// until Close flushes them.
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	requireFlush(t, flushes, n, FlushClose)
	for i, out := range outs {
		if res := await(t, out); res.err != nil {
			t.Fatalf("request %d accepted before Close got: %v", i, res.err)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was still predicting")
	default:
	}
	h.release()
	<-closed
	if err := <-heldErr; err != nil {
		t.Fatalf("held request accepted before Close got: %v", err)
	}

	if _, err := c.Predict(context.Background(), inputs[0]); !errors.Is(err, ErrCoalescerClosed) {
		t.Fatalf("Predict after Close = %v, want ErrCoalescerClosed", err)
	}
	c.Close() // idempotent
}

// TestCoalescerSourceError fans the model-resolution error back to every
// waiter in the batch.
func TestCoalescerSourceError(t *testing.T) {
	boom := errors.New("model gone")
	c := NewCoalescer(func() (*mvg.Model, error) { return nil, boom }, CoalescerConfig{
		Window: time.Millisecond, MaxBatch: 2,
	})
	defer c.Close()
	series := make([]float64, testSeriesLen)
	if _, err := c.Predict(context.Background(), series); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestCoalescerRevalidatesAtFlush: the coalescer predicts on the model
// resolved at flush time, which may differ from the one the handler
// validated against (hot reload while queued). A length mismatch must
// fail only the mismatching request — the rest of the batch still
// predicts.
func TestCoalescerRevalidatesAtFlush(t *testing.T) {
	model := testModel(t)
	h := holdModel(model)
	observe, flushes := recordFlushes()
	c := NewCoalescer(h.source, CoalescerConfig{Window: time.Hour, MaxBatch: 64, Observe: observe})
	defer c.Close()
	defer h.release()
	heldErr := holdBatch(t, c, h, testInputs(1, 9)[0])
	requireFlush(t, flushes, 1, FlushIdle)

	good := testInputs(1, 9)[0]
	bad := make([]float64, testSeriesLen/2)
	goodOut := submit(t, c, context.Background(), good)
	badOut := submit(t, c, context.Background(), bad)
	h.release()
	requireFlush(t, flushes, 2, FlushIdle) // good and bad share a batch
	goodRes, badRes := await(t, goodOut), await(t, badOut)

	if goodRes.err != nil {
		t.Fatalf("valid request in a mixed batch failed: %v", goodRes.err)
	}
	if len(goodRes.proba) == 0 {
		t.Fatal("valid request got no probabilities")
	}
	var he *Error
	if !errors.As(badRes.err, &he) || he.Status.HTTP != 400 {
		t.Fatalf("mismatched request got %v, want a 400 typed error", badRes.err)
	}
	if err := <-heldErr; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

// TestCoalescerContextCancel: a caller queued behind a busy model that
// gives up stops waiting, but the coalescer keeps running and serves later
// requests.
func TestCoalescerContextCancel(t *testing.T) {
	model := testModel(t)
	h := holdModel(model)
	c := NewCoalescer(h.source, CoalescerConfig{Window: time.Hour, MaxBatch: 64})
	defer c.Close()
	defer h.release()
	heldErr := holdBatch(t, c, h, testInputs(1, 8)[0])

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	input := testInputs(2, 8)[1]
	if _, err := c.Predict(ctx, input); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	h.release()
	if err := <-heldErr; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
	if _, err := c.Predict(context.Background(), input); err != nil {
		t.Fatalf("request after a cancelled one: %v", err)
	}
}

// TestCoalescerCancelledSlotDropped pins the fan-back cancellation
// contract: a client that disconnects before its batch flushes has its
// slot dropped at flush time — the observed batch holds only the
// surviving request — while companions in the same batch still get their
// rows.
func TestCoalescerCancelledSlotDropped(t *testing.T) {
	model := testModel(t)
	h := holdModel(model)
	observe, flushes := recordFlushes()
	c := NewCoalescer(h.source, CoalescerConfig{Window: time.Hour, MaxBatch: 64, Observe: observe})
	defer c.Close()
	defer h.release()
	heldErr := holdBatch(t, c, h, testInputs(3, 10)[2])
	requireFlush(t, flushes, 1, FlushIdle)

	inputs := testInputs(2, 10)
	want, err := model.PredictProba(context.Background(), inputs[:1])
	if err != nil {
		t.Fatal(err)
	}

	// The doomed request queues behind the busy model...
	doomedCtx, doom := context.WithCancel(context.Background())
	doomedOut := submit(t, c, doomedCtx, inputs[1])
	doom() // ...disconnects while queued...

	// ...and a surviving request joins the same batch.
	survivorOut := submit(t, c, context.Background(), inputs[0])
	h.release()
	res := await(t, survivorOut)
	if res.err != nil {
		t.Fatalf("surviving request failed: %v", res.err)
	}
	requireSameRow(t, want[0], res.proba)
	if res := await(t, doomedOut); !errors.Is(res.err, context.Canceled) {
		t.Fatalf("cancelled request got %v, want context.Canceled", res.err)
	}
	// Flushed batch of 1: the cancelled slot was dropped before predicting.
	requireFlush(t, flushes, 1, FlushIdle)
	if err := <-heldErr; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

// TestCoalescerCancelRace hammers the flush-time filtering under the race
// detector: half the callers cancel at random points inside the window,
// the other half must still receive rows byte-identical to the sequential
// reference, and cancelled callers must only ever see a context error.
func TestCoalescerCancelRace(t *testing.T) {
	model := testModel(t)
	const distinct, goroutines, perG = 6, 8, 15
	inputs := testInputs(distinct, 11)
	ref := make([][]float64, distinct)
	for i, s := range inputs {
		rows, err := model.PredictProba(context.Background(), [][]float64{s})
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = rows[0]
	}

	c := NewCoalescer(modelSource(model), CoalescerConfig{
		Window:   2 * time.Millisecond,
		MaxBatch: 16,
	})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				idx := (g*perG + k) % distinct
				if g%2 == 0 {
					// Cancelling caller: give up at a random point inside
					// (or right around) the coalescing window.
					ctx, cancel := context.WithTimeout(context.Background(),
						time.Duration(k%4)*time.Millisecond)
					proba, err := c.Predict(ctx, inputs[idx])
					cancel()
					if err != nil {
						if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
							errs <- err
							return
						}
						continue
					}
					// Beat the deadline: the row must still be correct.
					for j := range proba {
						if proba[j] != ref[idx][j] {
							errs <- errors.New("pre-deadline row differs from reference")
							return
						}
					}
					continue
				}
				proba, err := c.Predict(context.Background(), inputs[idx])
				if err != nil {
					errs <- err
					return
				}
				for j := range proba {
					if proba[j] != ref[idx][j] {
						errs <- errors.New("surviving row differs from reference")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
