package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is returned by Pool.ForEach after Close: the pool's
// workers have exited and no new batches are accepted. mvg.Pipeline
// translates it into the public mvg.ErrPipelineClosed.
var ErrPoolClosed = errors.New("parallel: pool closed")

// Pool is a persistent worker pool with per-worker scratch: each worker
// goroutine owns one S, created when the worker starts and reused for
// every job it ever executes — across batches, not just within one. This
// is what makes a warm mvg.Pipeline cheap: the scratch buffers (PAA
// pyramid, CSR arrays, motif counters) stay grown between calls instead of
// being rebuilt per batch, which is the dominant per-call cost for the
// small batches a serving coalescer flushes.
//
// Workers are spawned lazily, growing to the largest worker count any
// batch has requested; idle workers park on a channel receive and cost
// nothing. A Pool must eventually be Closed to release its goroutines
// (mvg.Pipeline arranges this via Close and a GC cleanup fallback; a
// one-shot caller defers Close right after NewPool).
//
// ForEach keeps the package's determinism contract: jobs are
// index-addressed, results live in caller-owned storage, and the error of
// the lowest failing index wins, so output is independent of scheduling
// and of the worker count.
type Pool[S any] struct {
	newScratch func() S

	mu      sync.Mutex
	spawned int
	closed  bool

	tasks chan func(S)
	quit  chan struct{}
	wg    sync.WaitGroup
}

// NewPool returns an empty pool; no goroutines run until the first batch.
// newScratch is called once per worker goroutine, when it starts.
func NewPool[S any](newScratch func() S) *Pool[S] {
	return &Pool[S]{
		newScratch: newScratch,
		tasks:      make(chan func(S)),
		quit:       make(chan struct{}),
	}
}

// ensure grows the worker set to at least k goroutines.
func (p *Pool[S]) ensure(k int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	for ; p.spawned < k; p.spawned++ {
		p.wg.Add(1)
		go p.worker()
	}
	return nil
}

func (p *Pool[S]) worker() {
	defer p.wg.Done()
	scratch := p.newScratch()
	for {
		select {
		case task := <-p.tasks:
			task(scratch)
		case <-p.quit:
			return
		}
	}
}

// ForEach executes fn(scratch, i) for every i in [0, n) on the pool,
// fanning across up to `workers` of the persistent goroutines (<= 0
// selects GOMAXPROCS; the cap is clamped to n). The context is checked
// between jobs: on cancellation, running jobs finish, unstarted jobs are
// skipped, and ctx.Err() is returned. A failing job does not skip the
// others; the error of the lowest failing index is returned. After Close
// it returns ErrPoolClosed.
//
// Concurrent ForEach calls are safe and share the worker set; each batch
// claims at most `workers` of them. A batch that got at least one worker
// always completes (that worker drains every remaining index), so a
// saturated pool degrades to less parallelism, never to deadlock.
func (p *Pool[S]) ForEach(ctx context.Context, workers, n int, fn func(scratch S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	k := Workers(workers, n)
	if err := p.ensure(k); err != nil {
		return err
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	run := func(scratch S) {
		defer wg.Done()
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(scratch, i)
		}
	}
	// Hand the batch to up to k workers. Any single accepted task is
	// enough for completeness — it loops until the index counter drains —
	// so a Close or cancellation racing the later submissions only costs
	// parallelism.
	submitted := 0
submit:
	for j := 0; j < k; j++ {
		wg.Add(1)
		select {
		case p.tasks <- run:
			submitted++
		case <-p.quit:
			wg.Done()
			break submit
		case <-ctx.Done():
			wg.Done()
			break submit
		}
	}
	if submitted == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrPoolClosed
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops the workers and waits for them to exit. Batches that already
// hold a worker run to completion first; ForEach calls that arrive after
// (or race) Close without securing a worker return ErrPoolClosed. Close is
// idempotent and safe to call concurrently.
func (p *Pool[S]) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.quit)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
