package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"mvg/internal/core"
	"mvg/internal/parallel"
)

// RunThroughput measures the batch feature-extraction engine at several
// worker counts — the scaling companion to the paper's §4.5 complexity
// benchmarks. It extracts a synthetic batch with 1, 2, 4 and GOMAXPROCS
// workers, reports series/sec and the speedup over the single-worker
// baseline, and verifies that every worker count produced the identical
// feature matrix (the engine's determinism guarantee).
func (r *Runner) RunThroughput() error {
	w := r.Cfg.Out
	batch, length := 96, 512
	if !r.Cfg.Quick {
		batch, length = 512, 1024
	}
	rng := rand.New(rand.NewSource(r.Cfg.Seed))
	series := make([][]float64, batch)
	for i := range series {
		t := make([]float64, length)
		for k := range t {
			t[k] = rng.NormFloat64()
		}
		series[i] = t
	}

	e, err := core.NewExtractor(core.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Throughput: batch extraction, %d series × %d points ==\n", batch, length)
	tbl := newTable(w)
	tbl.header("Workers", "Series/sec", "Speedup", "Identical")

	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	var baseline float64
	var reference [][]float64
	for _, workers := range workerCounts {
		X, rate, err := timeBatch(e, series, workers)
		if err != nil {
			return err
		}
		if workers == 1 {
			baseline = rate
			reference = X
		}
		identical := matricesEqual(reference, X)
		tbl.row(fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.2fx", rate/baseline),
			fmt.Sprintf("%v", identical))
		if !identical {
			return fmt.Errorf("throughput: workers=%d produced a different feature matrix than workers=1", workers)
		}
	}
	tbl.flush()
	fmt.Fprintln(w)
	return nil
}

// timeBatch extracts series on one pool of the given worker count and
// returns the feature matrix and the rate in series/sec. A first batch
// warms the pool so timing excludes scratch growth; the timed repetitions
// reuse those workers and their scratch.
func timeBatch(e *core.Extractor, series [][]float64, workers int) ([][]float64, float64, error) {
	pool := parallel.NewPool(core.NewScratch)
	defer pool.Close()
	ctx := context.Background()
	if _, err := e.ExtractDatasetPool(ctx, pool, workers, series); err != nil {
		return nil, 0, err
	}
	// Enough repetitions to smooth scheduler noise.
	const reps = 3
	start := time.Now()
	var X [][]float64
	for rep := 0; rep < reps; rep++ {
		var err error
		if X, err = e.ExtractDatasetPool(ctx, pool, workers, series); err != nil {
			return nil, 0, err
		}
	}
	return X, float64(reps*len(series)) / time.Since(start).Seconds(), nil
}

// matricesEqual reports bit-for-bit equality of two feature matrices
// (math.Float64bits comparison: NaNs with equal payloads match, -0 and +0
// do not — the same strictness as the determinism tests).
func matricesEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
