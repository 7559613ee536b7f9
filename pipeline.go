package mvg

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"

	"mvg/internal/core"
	"mvg/internal/parallel"
)

// Pipeline is the first-class unit of work of the library: a Config
// validated and compiled once into a feature extractor, plus a persistent
// worker pool whose per-worker scratch buffers (PAA pyramid, CSR arrays,
// motif counters) survive across calls. Build it once with NewPipeline and
// reuse it for every batch — extraction on a warm pipeline allocates only
// the result rows, where a pipeline built per call rebuilds the compiled
// extractor and re-grows its pool's scratch on every invocation
// (BenchmarkPipelineReuse quantifies the difference; small batches feel it
// most, which is exactly what a serving coalescer flushes).
//
// All methods take a context.Context with cooperative cancellation:
// between per-series jobs the pool checks the context, so abandoned work
// stops burning CPU promptly and the call returns ctx.Err(). Results are
// byte-identical for every worker count — see docs/concurrency.md.
//
// A Pipeline is safe for concurrent use. Close releases the worker
// goroutines; a pipeline that is dropped without Close is cleaned up when
// the garbage collector collects it, so Close is about promptness, not
// correctness. After Close every method returns ErrPipelineClosed.
type Pipeline struct {
	cfg       Config
	extractor *core.Extractor
	pool      *parallel.Pool[*core.Scratch]
	workers   atomic.Int64
	cleanup   runtime.Cleanup
}

// NewPipeline validates cfg eagerly and compiles it into a reusable
// pipeline. Invalid configurations return a *ConfigError (matching
// errors.Is(err, ErrBadConfig)) naming the offending field — at
// construction, not on the first batch. The returned pipeline has not
// spawned any goroutines yet; workers start on the first call and persist
// until Close.
func NewPipeline(cfg Config) (*Pipeline, error) {
	e, err := cfg.extractor()
	if err != nil {
		return nil, err
	}
	if err := cfg.validateClassifier(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:       cfg,
		extractor: e,
		pool:      parallel.NewPool(core.NewScratch),
	}
	p.workers.Store(int64(cfg.Workers))
	// Safety net for pipelines dropped without Close (including the one
	// LoadModel builds for every loaded model): release the pool's
	// goroutines when the pipeline becomes unreachable. The cleanup
	// argument is the pool, not the pipeline, so it does not keep the
	// pipeline alive.
	p.cleanup = runtime.AddCleanup(p, func(pool *parallel.Pool[*core.Scratch]) {
		pool.Close()
	}, p.pool)
	return p, nil
}

// Config returns the configuration the pipeline was built with. The
// Workers field reflects the construction-time value; the live cap is
// Workers().
func (p *Pipeline) Config() Config { return p.cfg }

// FeatureNames returns the names of the features extracted from series of
// the given length, in output order (e.g. "T0.HVG.P(M44)"; the layout is
// specified in docs/features.md).
func (p *Pipeline) FeatureNames(seriesLen int) []string {
	return p.extractor.FeatureNames(seriesLen)
}

// NumFeatures returns the feature-vector width for series of the given
// length under the pipeline's configuration.
func (p *Pipeline) NumFeatures(seriesLen int) int {
	return p.extractor.NumFeatures(seriesLen)
}

// SetWorkers retunes the worker-goroutine cap used by every subsequent
// batch (0 = GOMAXPROCS). Results are byte-identical for every worker
// count, so this only affects throughput. It is safe to call while batches
// are in flight: running batches keep the cap they started with.
func (p *Pipeline) SetWorkers(workers int) { p.workers.Store(int64(workers)) }

// Workers reports the current worker-goroutine cap (0 = GOMAXPROCS).
func (p *Pipeline) Workers() int { return int(p.workers.Load()) }

// Close releases the pipeline's worker goroutines and waits for them to
// exit; batches already holding a worker complete first. Close is
// idempotent. After Close, every method of the pipeline — and of any Model
// bound to it — returns ErrPipelineClosed. Closing is optional (an
// unreachable pipeline is cleaned up by the garbage collector) but
// releases the goroutines deterministically.
func (p *Pipeline) Close() {
	p.cleanup.Stop()
	p.pool.Close()
}

// Extract converts the batch into MVG feature matrices on the persistent
// pool: one row per series, row i always corresponding to series[i], with
// per-series jobs fanned across up to Workers() goroutines. When the
// batch is smaller than the worker budget and every series is long
// (≥4096 samples), the engine instead fans each series' per-scale graph
// builds across the pool, so a single long series still uses all
// workers; the output is bit-identical either way (docs/concurrency.md).
// The context is checked between jobs; on cancellation the call returns
// ctx.Err() promptly and the remaining series are never extracted. An
// empty batch returns a *ShapeError (errors.Is(err, ErrShapeMismatch));
// a series too short for the configured scales returns an error matching
// ErrSeriesTooShort.
func (p *Pipeline) Extract(ctx context.Context, series [][]float64) ([][]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(series) == 0 {
		return nil, &ShapeError{What: "series batch", Got: 0, Want: -1}
	}
	X, err := p.extractor.ExtractDatasetPool(ctx, p.pool, p.Workers(), series)
	if err != nil {
		return nil, p.wrapErr(err)
	}
	return X, nil
}

// Train extracts features from the labelled batch and fits the configured
// classifier (grid-search cross validation runs on the same pool). The
// returned Model is bound to this pipeline: predictions reuse the
// pipeline's warm workers, and SetWorkers on either retunes both. Labels
// must be dense ids in [0, classes).
func (p *Pipeline) Train(ctx context.Context, series [][]float64, labels []int, classes int) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(series) == 0 {
		return nil, &ShapeError{What: "training series batch", Got: 0, Want: -1}
	}
	if len(series) != len(labels) {
		return nil, &ShapeError{What: "labels", Got: len(labels), Want: len(series)}
	}
	X, err := p.Extract(ctx, series)
	if err != nil {
		return nil, err
	}
	clf, scaler, err := fitClassifier(ctx, p.runner(), X, labels, classes, p.cfg)
	if err != nil {
		return nil, p.wrapErr(err)
	}
	return &Model{
		pipe:      p,
		scaler:    scaler,
		clf:       clf,
		classes:   classes,
		names:     p.extractor.FeatureNames(len(series[0])),
		seriesLen: len(series[0]),
		// The drift baseline is computed on the raw (pre-scaler) feature
		// rows — the same space Stream.Features emits, so streamed windows
		// score against exactly what training saw.
		drift: computeDriftBaseline(X, labels, classes),
	}, nil
}

// runner binds the pipeline's pool as the executor for scratch-free
// fan-out (grid-search cross validation), honouring the live worker cap at
// each call.
func (p *Pipeline) runner() parallel.Runner {
	return func(ctx context.Context, n int, fn func(i int) error) error {
		return p.pool.ForEach(ctx, p.Workers(), n, func(_ *core.Scratch, i int) error { return fn(i) })
	}
}

// wrapErr translates internal sentinel errors into their public
// counterparts (pool closed → ErrPipelineClosed); everything else passes
// through unchanged.
func (p *Pipeline) wrapErr(err error) error {
	if errors.Is(err, parallel.ErrPoolClosed) {
		return ErrPipelineClosed
	}
	return err
}
