package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolForEachRunsEveryJob verifies completeness and scratch identity:
// every index runs exactly once, and the scratch a job sees is one of the
// per-worker values (never shared between concurrently-running jobs).
func TestPoolForEachRunsEveryJob(t *testing.T) {
	var scratchID atomic.Int64
	p := NewPool(func() *int64 {
		id := scratchID.Add(1)
		return &id
	})
	defer p.Close()

	const n = 100
	ran := make([]int64, n) // scratch id per job, also proves single execution
	err := p.ForEach(context.Background(), 4, n, func(s *int64, i int) error {
		if ran[i] != 0 {
			t.Errorf("job %d ran twice", i)
		}
		ran[i] = *s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ran {
		if id == 0 {
			t.Fatalf("job %d never ran", i)
		}
	}
	if ids := scratchID.Load(); ids > 4 {
		t.Errorf("%d scratch values created for 4 workers", ids)
	}
}

// TestPoolScratchPersistsAcrossBatches is the pool's reason to exist: the
// same per-worker scratch values serve batch after batch, instead of being
// rebuilt per call.
func TestPoolScratchPersistsAcrossBatches(t *testing.T) {
	var created atomic.Int64
	p := NewPool(func() *struct{} {
		created.Add(1)
		return &struct{}{}
	})
	defer p.Close()

	for batch := 0; batch < 10; batch++ {
		if err := p.ForEach(context.Background(), 2, 8, func(_ *struct{}, i int) error {
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c := created.Load(); c > 2 {
		t.Errorf("newScratch called %d times across 10 batches, want <= 2 (one per worker)", c)
	}
}

// TestPoolErrorDeterminism: the error of the lowest-numbered failing job
// wins regardless of scheduling.
func TestPoolErrorDeterminism(t *testing.T) {
	p := newPlainPool()
	defer p.Close()
	for trial := 0; trial < 20; trial++ {
		err := p.ForEach(context.Background(), 8, 50, func(_ struct{}, i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3" {
			t.Fatalf("trial %d: err = %v, want job 3", trial, err)
		}
	}
}

// TestPoolCancellation: cancelling mid-batch returns ctx.Err() promptly
// and stops claiming new jobs; the pool stays usable afterwards.
func TestPoolCancellation(t *testing.T) {
	p := newPlainPool()
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	var cancelOnce sync.Once

	const n = 1000
	err := p.ForEach(ctx, 2, n, func(_ struct{}, i int) error {
		if started.Add(1) == 2 {
			cancelOnce.Do(func() {
				cancel()
				close(release)
			})
		} else {
			<-release // park the other worker until the cancel happened
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s > 4 {
		t.Errorf("%d jobs started after cancellation point, want prompt stop", s)
	}

	// The pool still serves fresh batches.
	if err := p.ForEach(context.Background(), 2, 10, func(_ struct{}, i int) error {
		return nil
	}); err != nil {
		t.Fatalf("pool unusable after a cancelled batch: %v", err)
	}
}

// TestPoolPreCancelled: an already-cancelled context runs nothing.
func TestPoolPreCancelled(t *testing.T) {
	p := newPlainPool()
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := p.ForEach(ctx, 2, 5, func(_ struct{}, i int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Error("job ran despite pre-cancelled context")
	}
}

// TestPoolCloseReleasesGoroutines: Close stops the workers; the goroutine
// count returns to the pre-pool baseline (the no-leak assertion the
// cancellation satellite requires).
func TestPoolCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newPlainPool()
	if err := p.ForEach(context.Background(), 8, 64, func(_ struct{}, i int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if during := runtime.NumGoroutine(); during < before+1 {
		t.Fatalf("expected persistent workers while open: %d goroutines vs %d before", during, before)
	}
	p.Close()
	waitForGoroutines(t, before)

	if err := p.ForEach(context.Background(), 1, 1, func(_ struct{}, i int) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("ForEach after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// waitForGoroutines retries until the goroutine count drops back to the
// baseline (scheduler exits are asynchronous), failing after 5s.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d alive, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolConcurrentBatches: many goroutines share one pool; every batch
// completes correctly even when batches outnumber workers.
func TestPoolConcurrentBatches(t *testing.T) {
	p := newPlainPool()
	defer p.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var count atomic.Int64
			if err := p.ForEach(context.Background(), 3, 40, func(_ struct{}, i int) error {
				count.Add(1)
				return nil
			}); err != nil {
				errs <- err
				return
			}
			if c := count.Load(); c != 40 {
				errs <- fmt.Errorf("batch ran %d of 40 jobs", c)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolNilContext: a nil context runs the batch as context.Background.
func TestPoolNilContext(t *testing.T) {
	p := newPlainPool()
	defer p.Close()
	var ctx context.Context // nil
	var count atomic.Int64
	if err := p.ForEach(ctx, 4, 25, func(_ struct{}, i int) error { count.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 25 {
		t.Fatalf("ran %d of 25", count.Load())
	}
}

// hookCtx calls hook on every Done call. ForEach calls Done only in the
// select that hands a task to a worker, so the hook runs at a known point
// of the hand-out loop: call k is the attempt to hand out task k.
type hookCtx struct {
	context.Context
	calls atomic.Int32
	hook  func(call int32)
}

func (c *hookCtx) Done() <-chan struct{} {
	c.hook(c.calls.Add(1))
	return c.Context.Done()
}

// occupy parks every worker of a fresh one-worker pool inside a batch
// and returns that batch's result channel and the release that lets it
// finish.
func occupy(t *testing.T, p *Pool[struct{}]) (result <-chan error, release chan<- struct{}) {
	t.Helper()
	started := make(chan struct{})
	rel := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		res <- p.ForEach(context.Background(), 1, 1, func(struct{}, int) error {
			close(started)
			<-rel
			return nil
		})
	}()
	<-started
	return res, rel
}

// TestPoolCloseWhileBusy: a Close while every worker is busy turns the
// batch still waiting for a worker away with ErrPoolClosed, and the busy
// batch runs to completion before Close returns.
func TestPoolCloseWhileBusy(t *testing.T) {
	p := newPlainPool()
	busy, release := occupy(t, p)

	closed := make(chan struct{})
	ctx := &hookCtx{Context: context.Background(), hook: func(call int32) {
		if call == 1 { // waiting for a worker: close the pool under it
			go func() { p.Close(); close(closed) }()
		}
	}}
	var ran atomic.Bool
	err := p.ForEach(ctx, 1, 3, func(struct{}, int) error { ran.Store(true); return nil })
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("waiting batch: err = %v, want ErrPoolClosed", err)
	}
	if ran.Load() {
		t.Error("a job of the turned-away batch ran")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a batch still held a worker")
	default:
	}
	close(release)
	if err := <-busy; err != nil {
		t.Fatalf("busy batch: %v", err)
	}
	<-closed
}

// TestPoolCancelWhileHandingOut: a cancel that lands while the batch is
// still handing tasks to workers stops the hand-out and returns ctx.Err(),
// whether no task or some tasks were already handed out.
func TestPoolCancelWhileHandingOut(t *testing.T) {
	for _, c := range []struct {
		name      string
		workers   int
		cancelsAt int32
	}{
		{"none handed out", 1, 1},
		{"one handed out", 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newPlainPool()
			defer p.Close()
			busy, release := occupy(t, p)

			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := &hookCtx{Context: parent, hook: func(call int32) {
				if call == c.cancelsAt {
					cancel()
				}
			}}
			// A job holds its worker until the cancel, so every later task
			// finds no idle worker and only the cancel can end the hand-out.
			err := p.ForEach(ctx, c.workers, 10, func(struct{}, int) error {
				<-parent.Done()
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			close(release)
			if err := <-busy; err != nil {
				t.Fatalf("busy batch: %v", err)
			}
		})
	}
}
