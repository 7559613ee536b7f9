// Benchmarks regenerating every table and figure of the paper's evaluation
// (from Figure 2 on, each BenchmarkTableN_/BenchmarkFigureN_ runs the
// experiments.Experiments id its name carries, e.g. "table3") plus the §4.5
// complexity micro-benchmarks. Experiment benchmarks run on a reduced
// two-dataset slice of the suite so `go test -bench=.` completes quickly;
// `cmd/mvgbench` prints the full tables.
package mvg

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mvg/internal/core"
	"mvg/internal/experiments"
	"mvg/internal/graph"
	"mvg/internal/motif"
	"mvg/internal/parallel"
	"mvg/internal/timeseries"
	"mvg/internal/visibility"
)

// benchConfig is the reduced experiment configuration used by the
// per-table benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{
		Out:      io.Discard,
		Seed:     1,
		Quick:    true,
		Datasets: []string{"SynthECG", "EngineNoise"},
	}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		if err := r.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1_VGConstruction regenerates the Figure 1 artifact: the
// VG and HVG of a small series.
func BenchmarkFigure1_VGConstruction(b *testing.B) {
	series := []float64{0.87, 0.49, 0.36, 0.83, 0.87, 0.49, 0.36, 0.83,
		0.87, 0.49, 0.36, 0.83, 0.32, 0.56, 0.25, 0.35, 0.2, 0.96, 0.15, 0.34, 0.7}
	for i := 0; i < b.N; i++ {
		if _, err := SummarizeVG(series); err != nil {
			b.Fatal(err)
		}
		if _, err := SummarizeHVG(series); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2_MotifDistributions regenerates the per-class motif
// probability boxplot statistics.
func BenchmarkFigure2_MotifDistributions(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkTable2_HeuristicAblation regenerates the representation
// ablation (columns A–G plus 1NN references and Wilcoxon rows).
func BenchmarkTable2_HeuristicAblation(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFigure3_MPDvsAll regenerates the MPDs-vs-all-features scatter.
func BenchmarkFigure3_MPDvsAll(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure4_GraphTypes regenerates the HVG/VG/UVG scatter.
func BenchmarkFigure4_GraphTypes(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5_Scales regenerates the UVG/AMVG/MVG scatter.
func BenchmarkFigure5_Scales(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6_ClassifierFamilies regenerates the RF/SVM/XGBoost
// critical-difference diagram.
func BenchmarkFigure6_ClassifierFamilies(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7_Stacking regenerates the stacking CD diagram.
func BenchmarkFigure7_Stacking(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTable3_StateOfTheArt regenerates the five-baseline accuracy and
// runtime comparison.
func BenchmarkTable3_StateOfTheArt(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFigure8_BaselineScatter regenerates the per-baseline scatter.
func BenchmarkFigure8_BaselineScatter(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure9_RuntimeComparison regenerates the FS-vs-MVG runtime
// comparison.
func BenchmarkFigure9_RuntimeComparison(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10_FeatureImportance regenerates the case-study feature
// ranking.
func BenchmarkFigure10_FeatureImportance(b *testing.B) { runExperiment(b, "fig10") }

// ---- §4.5 complexity micro-benchmarks ----

func randomSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	t := make([]float64, n)
	for i := range t {
		t[i] = rng.NormFloat64()
	}
	return t
}

func benchSizes(b *testing.B, f func(b *testing.B, series []float64)) {
	for _, n := range []int{128, 512, 2048} {
		series := randomSeries(n, int64(n))
		b.Run(sizeName(n), func(b *testing.B) { f(b, series) })
	}
}

func sizeName(n int) string {
	switch n {
	case 128:
		return "n=128"
	case 512:
		return "n=512"
	default:
		return "n=2048"
	}
}

// BenchmarkVG_DivideConquer measures the default sub-quadratic VG builder.
func BenchmarkVG_DivideConquer(b *testing.B) {
	benchSizes(b, func(b *testing.B, series []float64) {
		for i := 0; i < b.N; i++ {
			if _, err := visibility.VG(series); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVG_Naive measures the O(n²) reference builder (the ablation the
// paper's efficiency claims rest on).
func BenchmarkVG_Naive(b *testing.B) {
	benchSizes(b, func(b *testing.B, series []float64) {
		for i := 0; i < b.N; i++ {
			if _, err := visibility.VGNaive(series); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHVG measures the O(n) stack builder.
func BenchmarkHVG(b *testing.B) {
	benchSizes(b, func(b *testing.B, series []float64) {
		for i := 0; i < b.N; i++ {
			if _, err := visibility.HVG(series); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, err := visibility.VG(randomSeries(n, int64(n)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// smoothSeries returns the 16-point trailing moving average of a Gaussian
// random walk. Its VG is dense and hub-heavy (at n=2048 with seed 1: 64955
// edges, max degree 252, 2.6M 4-cliques), like the VGs of the long fBm
// series batch extraction sees; white-noise VGs are sparse by comparison.
func smoothSeries(n int, seed int64) []float64 {
	const k = 16
	rng := rand.New(rand.NewSource(seed))
	walk := make([]float64, n+k-1)
	for i := 1; i < len(walk); i++ {
		walk[i] = walk[i-1] + rng.NormFloat64()
	}
	out := make([]float64, n)
	for i := range out {
		var s float64
		for _, x := range walk[i : i+k] {
			s += x
		}
		out[i] = s / k
	}
	return out
}

// BenchmarkMotifCount measures exact graphlet counting (the PGD stand-in)
// on white-noise VGs and on the dense VG of a smoothed walk.
func BenchmarkMotifCount(b *testing.B) {
	run := func(name string, g *graph.Graph) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				motif.Count(g)
			}
		})
	}
	for _, n := range []int{128, 512, 2048} {
		run(sizeName(n), benchGraph(b, n))
	}
	smooth, err := visibility.VG(smoothSeries(2048, 1))
	if err != nil {
		b.Fatal(err)
	}
	run("n=2048/smooth", smooth)
}

// BenchmarkKCore measures the O(m) core decomposition.
func BenchmarkKCore(b *testing.B) {
	g := benchGraph(b, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CoreNumbers()
	}
}

// BenchmarkAssortativity measures the O(m) assortativity coefficient.
func BenchmarkAssortativity(b *testing.B) {
	g := benchGraph(b, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Assortativity()
	}
}

// BenchmarkExtractFeatures measures the full Algorithm 1 per series.
func BenchmarkExtractFeatures(b *testing.B) {
	e, err := core.NewExtractor(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchSizes(b, func(b *testing.B, series []float64) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Extract(series); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractBatch measures the parallel batch engine (Algorithm 1
// fanned across the internal/parallel worker pool with per-worker scratch
// reuse) on a synthetic dataset, at 1, 2, 4 and GOMAXPROCS workers. Before
// the timer starts, every worker of the pool extracts the whole dataset
// once, so each scratch has grown for every series and a timed batch
// allocates only its feature vectors and the pool's per-batch
// bookkeeping: a count set by the input and the worker count. A cold
// batch's count is not, since a scratch buffer grows to exactly the size
// asked for, and so regrows at each new largest graph among the series
// its worker happens to draw. The series/sec metric is the headline
// throughput of the extraction stage; speedup is read off by comparing
// sub-benchmarks.
func BenchmarkExtractBatch(b *testing.B) {
	const batch, length = 64, 512
	series := make([][]float64, batch)
	for i := range series {
		series[i] = randomSeries(length, int64(i+1))
	}
	e, err := core.NewExtractor(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		workerCounts = append(workerCounts, p)
	}
	ctx := context.Background()
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.NewPool(core.NewScratch)
			defer pool.Close()
			// One warm-up job per worker, each the whole dataset. A job
			// waits until every job has been claimed, so no worker can
			// claim two and each worker runs one.
			var claimed sync.WaitGroup
			claimed.Add(workers)
			err := pool.ForEach(ctx, workers, workers, func(sc *core.Scratch, _ int) error {
				claimed.Done()
				claimed.Wait()
				for _, s := range series {
					if _, err := e.ExtractWith(sc, s); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExtractDatasetPool(ctx, pool, workers, series); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "series/sec")
		})
	}
}

// BenchmarkExtractScratchReuse isolates the allocation win of per-worker
// scratch reuse: the same series extracted with a persistent Scratch versus
// the throwaway scratch Extract allocates per call.
func BenchmarkExtractScratchReuse(b *testing.B) {
	series := randomSeries(512, 11)
	e, err := core.NewExtractor(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh-scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Extract(series); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused-scratch", func(b *testing.B) {
		b.ReportAllocs()
		sc := core.NewScratch()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExtractWith(sc, series); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// monotoneRamp returns the decreasing linear ramp — the worst case of
// both the plain divide-and-conquer recursion (the pivot always sits at
// the window edge) and the backward-scan builder (whose window-maximum
// early exit never fires while every slope record is negative).
func monotoneRamp(n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = float64(-i)
	}
	return t
}

// BenchmarkNVGBuildMonotone measures the hull-tree divide-and-conquer NVG
// builder (internal/visibility/dnc.go) on the monotone worst case, where
// the pre-index builder was O(n²). The same-run ratio gate in
// BENCH_baseline.json requires ≥5× over BenchmarkNVGBuildScanMonotone at
// n=10k.
func BenchmarkNVGBuildMonotone(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		series := monotoneRamp(n)
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			var vb visibility.Builder
			for i := 0; i < b.N; i++ {
				if _, err := vb.VGEdges(series); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNVGBuildScanMonotone measures the backward-scan reference
// builder on the same worst case — the baseline the ratio gate divides by.
func BenchmarkNVGBuildScanMonotone(b *testing.B) {
	series := monotoneRamp(10_000)
	b.Run("n=10k", func(b *testing.B) {
		b.ReportAllocs()
		var vb visibility.Builder
		for i := 0; i < b.N; i++ {
			if _, err := vb.VGEdgesScan(series); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractLongSeries measures one 100k-point request on a warm
// pipeline: a batch smaller than the worker budget, so extraction fans
// the per-scale graph builds across the pool (in-series parallelism)
// instead of serializing the request on a single worker. Workers are
// pinned at 4 so the routing does not depend on the host's core count,
// and the pool is warmed before the timer: the gated allocs/op is the
// steady-state per-request cost, not the scheduling-dependent first-call
// scratch growth.
func BenchmarkExtractLongSeries(b *testing.B) {
	series := [][]float64{randomSeries(100_000, 42)}
	p, err := NewPipeline(Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.Extract(context.Background(), series); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Extract(context.Background(), series); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTW measures the distance kernel of the 1NN baselines.
func BenchmarkDTW(b *testing.B) {
	a := randomSeries(512, 1)
	c := randomSeries(512, 2)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timeseries.DTW(a, c, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("window=51", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timeseries.DTW(a, c, 51); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTauAblation measures how the τ threshold (Definition 3.1)
// trades scale count against extraction cost — a design-choice ablation
// from DESIGN.md.
func BenchmarkTauAblation(b *testing.B) {
	series := randomSeries(1024, 3)
	for _, tau := range []int{-1, 15, 63} {
		e, err := core.NewExtractor(core.Options{Tau: tau})
		if err != nil {
			b.Fatal(err)
		}
		name := "tau=default15"
		switch tau {
		case -1:
			name = "tau=min"
		case 63:
			name = "tau=63"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Extract(series); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtendedFeaturesAblation measures the cost of the future-work
// feature set (degree entropy + transitivity) on top of the paper's
// evaluated configuration.
func BenchmarkExtendedFeaturesAblation(b *testing.B) {
	series := randomSeries(512, 7)
	for _, ext := range []bool{false, true} {
		e, err := core.NewExtractor(core.Options{Extended: ext})
		if err != nil {
			b.Fatal(err)
		}
		name := "paper-featureset"
		if ext {
			name = "with-futurework-features"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Extract(series); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
