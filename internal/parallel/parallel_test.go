package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	auto := procs
	if auto > 2 {
		auto = 2 // Workers(<=0, 2) clamps GOMAXPROCS to the job count
	}
	cases := []struct {
		requested, jobs, want int
	}{
		{1, 100, 1},
		{8, 3, 3},
		{4, 0, 4},
		{0, 1000, procs},
		{-5, 2, auto},
	}
	for _, c := range cases {
		got := Workers(c.requested, c.jobs)
		if got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.jobs, got, c.want)
		}
	}
}

// newPlainPool returns a pool whose jobs need no scratch.
func newPlainPool() *Pool[struct{}] {
	return NewPool(func() struct{} { return struct{}{} })
}

// TestForEachRunsEveryJobOnce runs batches at growing worker caps on one
// pool, the way Pipeline.SetWorkers retunes a live pipeline: every job of
// every batch runs exactly once.
func TestForEachRunsEveryJobOnce(t *testing.T) {
	p := newPlainPool()
	defer p.Close()
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		err := p.ForEach(context.Background(), workers, n, func(_ struct{}, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	p := newPlainPool()
	defer p.Close()
	called := false
	if err := p.ForEach(context.Background(), 4, 0, func(struct{}, int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n=0")
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	// Several jobs fail; the reported error must always be the lowest
	// failing index, independent of worker count and scheduling.
	p := newPlainPool()
	defer p.Close()
	for _, workers := range []int{1, 2, 8} {
		err := p.ForEach(context.Background(), workers, 100, func(_ struct{}, i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3" {
			t.Fatalf("workers=%d: err = %v, want job 3", workers, err)
		}
	}
}

func TestForEachErrorsDoNotSkipJobs(t *testing.T) {
	p := newPlainPool()
	defer p.Close()
	const n = 64
	var ran atomic.Int32
	sentinel := errors.New("boom")
	err := p.ForEach(context.Background(), 4, n, func(_ struct{}, i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d jobs, want all %d despite the error", got, n)
	}
}
