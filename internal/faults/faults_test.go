package faults

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func TestNilAndUnarmed(t *testing.T) {
	var nilInj *Injector
	if err := nilInj.Fire(context.Background(), "x"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if got := nilInj.Count("x"); got != 0 {
		t.Fatalf("nil injector count = %d", got)
	}
	in := New()
	if err := in.Fire(context.Background(), "x"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	// A never-armed point is not tracked.
	if got := in.Count("x"); got != 0 {
		t.Fatalf("unarmed count = %d", got)
	}
}

func TestFailAndClear(t *testing.T) {
	in := New()
	in.Fail("p", errBoom)
	for i := 0; i < 3; i++ {
		if err := in.Fire(context.Background(), "p"); !errors.Is(err, errBoom) {
			t.Fatalf("fire %d = %v, want errBoom", i, err)
		}
	}
	in.Clear("p")
	if err := in.Fire(context.Background(), "p"); err != nil {
		t.Fatalf("cleared point fired: %v", err)
	}
	if got := in.Count("p"); got != 4 {
		t.Fatalf("count = %d, want 4 (counts survive Clear)", got)
	}
	in.Reset()
	if got := in.Count("p"); got != 0 {
		t.Fatalf("count after Reset = %d", got)
	}
}

func TestFailN(t *testing.T) {
	in := New()
	in.FailN("p", 2, errBoom)
	for i := 0; i < 2; i++ {
		if err := in.Fire(context.Background(), "p"); !errors.Is(err, errBoom) {
			t.Fatalf("fire %d = %v, want errBoom", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := in.Fire(context.Background(), "p"); err != nil {
			t.Fatalf("post-recovery fire %d = %v, want nil", i, err)
		}
	}
}

func TestDelayHonoursContext(t *testing.T) {
	in := New()
	in.Delay("p", time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- in.Fire(ctx, "p") }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fire did not respect cancellation")
	}
}

// TestBlockUntilRelease: a blocked point holds every Fire until release,
// a cancelled context cuts the wait short, and a released point no longer
// blocks.
func TestBlockUntilRelease(t *testing.T) {
	in := New()
	release := in.Block("p")
	done := make(chan error, 1)
	go func() { done <- in.Fire(context.Background(), "p") }()
	for in.Count("p") == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("blocked Fire returned %v before release", err)
	default:
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := in.Fire(ctx, "p"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Fire = %v, want context.Canceled", err)
	}

	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released Fire = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not free the waiting Fire")
	}
	release() // a second release is a no-op
	if err := in.Fire(context.Background(), "p"); err != nil {
		t.Fatalf("Fire after release = %v, want nil", err)
	}
	if got := in.Count("p"); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
}

func TestDelayThenError(t *testing.T) {
	in := New()
	in.Delay("p", time.Millisecond)
	in.Fail("p", errBoom)
	start := time.Now()
	if err := in.Fire(context.Background(), "p"); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay was not applied before the error")
	}
}

// TestConcurrentFire hammers one injector from many goroutines while it is
// re-armed concurrently; run with -race. Every fire must be counted.
func TestConcurrentFire(t *testing.T) {
	in := New()
	// Fire counts only points something has armed, so register "p" (with
	// a zero delay, which fires as a no-op) before the first goroutine
	// can fire it.
	in.Delay("p", 0)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				in.Fire(context.Background(), "p")
			}
		}()
	}
	for i := 0; i < 50; i++ {
		in.FailN("p", 3, errBoom)
		in.Clear("p")
	}
	wg.Wait()
	if got := in.Count("p"); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}
