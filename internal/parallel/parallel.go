// Package parallel provides the one executor that every fan-out of the
// MVG pipeline runs on: Pool, a worker pool with per-worker scratch. It
// carries feature extraction over a dataset (per-series, or per-scale
// within one long series), grid-search cross validation and random-forest
// tree building. mvg.Pipeline keeps one Pool alive across calls; one-shot
// callers (the experiments, a grid search given no Runner, forest.Fit)
// build a Pool for the call and Close it before returning.
//
// The executor makes two guarantees that the pipeline relies on:
//
//   - Determinism. Jobs are identified by index and results are written to
//     caller-owned, index-addressed storage, so the output of a run is
//     independent of scheduling order and of the worker count. Every job
//     runs even when others fail, and the error of the lowest-numbered
//     failing job is returned, so error reporting is deterministic too.
//   - Scratch isolation. Every worker goroutine owns one scratch value,
//     created once and reused across all jobs that worker executes. Hot
//     loops (e.g. core.Extractor) use this to recycle degree arrays, PAA
//     buffers and motif counters instead of reallocating them per series.
//
// See docs/concurrency.md for the concurrency model exposed to users via
// mvg.Config.Workers.
package parallel

import (
	"context"
	"runtime"
)

// Runner runs fn(i) for every i in [0, n) under the Pool.ForEach
// contract: every job runs even when others fail, the lowest failing
// index's error wins, and ctx.Err() is returned when the context is
// cancelled before every job ran. mvg.Pipeline binds one to its own pool
// and live worker cap, so grid search fans out on the pipeline's workers.
type Runner func(ctx context.Context, n int, fn func(i int) error) error

// Workers resolves a requested worker count against a job count: requested
// <= 0 selects runtime.GOMAXPROCS(0) (one worker per available CPU), and
// the result is clamped to [1, jobs] so no goroutine is ever idle-spawned.
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if jobs > 0 && w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}
