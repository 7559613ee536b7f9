package core

import (
	"context"
	"fmt"
	"sync"

	"mvg/internal/buf"
	"mvg/internal/graph"
	"mvg/internal/motif"
	"mvg/internal/parallel"
	"mvg/internal/timeseries"
	"mvg/internal/visibility"
)

// Per-graph feature block widths.
const (
	mpdWidth      = 17 // motif probabilities, motif.Names order
	otherWidth    = 6  // density, assortativity, kcore, max/min/mean degree
	extendedWidth = 2  // degree entropy, transitivity (§6 future work)
)

// otherFeatureNames lists the non-MPD per-graph statistics in block order.
var otherFeatureNames = []string{
	"Density", "Assortativity", "KCore", "MaxDegree", "MinDegree", "MeanDegree",
}

// extendedFeatureNames lists the optional future-work statistics.
var extendedFeatureNames = []string{"DegreeEntropy", "Transitivity"}

// scaleParallelMinLen is the series length from which a batch smaller
// than its worker budget fans each series's per-scale graph builds across
// the pool (see ExtractDatasetPool) instead of serializing the series on
// one worker. Below it, per-scale jobs are too short to amortize the
// hand-off; above it, the visibility builds dominate and split cleanly.
const scaleParallelMinLen = 4096

// Extractor converts time series into MVG feature vectors (Algorithm 1).
// It is safe for concurrent use.
type Extractor struct {
	opts Options
	tau  int

	// coord pools coordination Scratch values for the scale-parallel batch
	// path: preprocessing and the PAA pyramid run on the calling
	// goroutine (never on pool workers, whose own Scratch handles the
	// graph builds), and concurrent batches must not share buffers.
	coord sync.Pool
}

// NewExtractor validates opts and returns an Extractor. The zero Options
// value is the paper's recommended MVG configuration.
func NewExtractor(opts Options) (*Extractor, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tau := opts.Tau
	if tau == 0 {
		tau = timeseries.DefaultTau
	}
	// Clamp once here so every consumer of e.tau — scalesInto, NumScales,
	// NumFeatures, FeatureNames — agrees on the pyramid's stop condition
	// (a visibility graph needs at least two vertices).
	if tau < 2 {
		tau = 2
	}
	return &Extractor{opts: opts, tau: tau}, nil
}

// Options returns the configuration the extractor was built with.
func (e *Extractor) Options() Options { return e.opts }

// perGraphWidth returns the number of features contributed by one graph.
func (e *Extractor) perGraphWidth() int {
	w := mpdWidth
	if e.opts.Features == AllFeatures {
		w += otherWidth
	}
	if e.opts.Extended {
		w += extendedWidth
	}
	return w
}

// graphsPerScale returns how many graphs each scale contributes.
func (e *Extractor) graphsPerScale() int {
	if e.opts.Graphs == VGAndHVG {
		return 2
	}
	return 1
}

// scalesInto materializes the configured subset of the multiscale pyramid
// in sc's reusable buffers. The returned slices alias sc and are valid
// until its next use.
func (e *Extractor) scalesInto(sc *Scratch, series []float64) ([][]float64, error) {
	sc.pre = buf.Grow(sc.pre, len(series))
	t := sc.pre
	if e.opts.NoZNormalize {
		copy(t, series)
	} else {
		timeseries.ZNormalizeInto(t, series)
	}
	if !e.opts.NoDetrend {
		timeseries.DetrendInto(t, t)
	}
	set := sc.scaleSet[:0]
	if e.opts.Scales != ApproxMultiscale {
		set = append(set, t)
	}
	if e.opts.Scales != Uniscale {
		// Definition 3.1's halvings; the stop condition must stay in
		// lockstep with NumScales.
		cur := t
		for level := 0; len(cur)/2 > e.tau; level++ {
			if level == len(sc.pyramid) {
				sc.pyramid = append(sc.pyramid, nil)
			}
			next, err := timeseries.HalveInto(sc.pyramid[level], cur)
			if err != nil {
				return nil, err
			}
			sc.pyramid[level] = next
			set = append(set, next)
			cur = next
		}
	}
	sc.scaleSet = set
	return set, nil
}

// NumScales returns the number of scales a series of length n produces
// under the extractor's configuration. Labels in FeatureNames use the
// convention T0 = original series, Ti = i-th halving, so AMVG starts at T1.
func (e *Extractor) NumScales(n int) int {
	if e.opts.Scales == Uniscale {
		return 1
	}
	count := 0
	if e.opts.Scales == FullMultiscale {
		count = 1 // T0
	}
	for n/2 > e.tau {
		n /= 2
		count++
	}
	return count
}

// NumFeatures returns the feature-vector length for series of length n.
func (e *Extractor) NumFeatures(n int) int {
	return e.NumScales(n) * e.graphsPerScale() * e.perGraphWidth()
}

// FeatureNames returns human-readable names aligned with the output of
// Extract for series of length n, e.g. "T0.HVG.P(M44)" or
// "T2.VG.Assortativity" (the names used in the paper's Figure 10).
func (e *Extractor) FeatureNames(n int) []string {
	numScales := e.NumScales(n)
	firstScale := 0
	if e.opts.Scales == ApproxMultiscale {
		firstScale = 1
	}
	var kinds []string
	switch e.opts.Graphs {
	case VGAndHVG:
		kinds = []string{"VG", "HVG"}
	case VGOnly:
		kinds = []string{"VG"}
	default:
		kinds = []string{"HVG"}
	}
	names := make([]string, 0, e.NumFeatures(n))
	for s := 0; s < numScales; s++ {
		for _, kind := range kinds {
			prefix := fmt.Sprintf("T%d.%s", firstScale+s, kind)
			for _, m := range motif.Names {
				names = append(names, fmt.Sprintf("%s.P(%s)", prefix, m))
			}
			if e.opts.Features == AllFeatures {
				for _, o := range otherFeatureNames {
					names = append(names, prefix+"."+o)
				}
			}
			if e.opts.Extended {
				for _, o := range extendedFeatureNames {
					names = append(names, prefix+"."+o)
				}
			}
		}
	}
	return names
}

// degreeGraph is a graph whose degree statistics a feature block reads: a
// built CSR graph, or a ring's live window read in place.
type degreeGraph interface {
	DegreesInto(dst []int) []int
	DegeneracyScratch(s *graph.CoreScratch) int
	DegreeEntropyScratch(s *graph.CoreScratch) float64
}

// graphBlock appends the feature block of graph g to dst, given its
// subgraph counts: the motif counts, the assortativity, the density and
// the mean degree close from sub, the other statistics read g's degrees
// and rows in sc's reusable buffers. An HVG's degeneracy follows from its
// vertex and edge counts (graph.HVGDegeneracy), so only a VG is peeled.
func (e *Extractor) graphBlock(dst []float64, g degreeGraph, sub graph.Subgraphs, hvg bool, sc *Scratch) []float64 {
	c := motif.FromSubgraphs(sub)
	dst = c.AppendProbabilities(dst)
	if e.opts.Features == AllFeatures {
		n, m := int(sub.N), int(sub.M)
		r, _ := sub.Assortativity() // undefined → 0, a neutral value
		sc.deg = g.DegreesInto(sc.deg)
		maxDeg, minDeg := graph.DegreeRange(sc.deg)
		var kcore int
		if hvg {
			kcore = graph.HVGDegeneracy(n, m)
		} else {
			kcore = g.DegeneracyScratch(&sc.cores)
		}
		dst = append(dst,
			graph.DensityOf(n, m),
			r,
			float64(kcore),
			float64(maxDeg),
			float64(minDeg),
			graph.MeanDegreeOf(n, m),
		)
	}
	if e.opts.Extended {
		dst = append(dst, g.DegreeEntropyScratch(&sc.cores), transitivity(c))
	}
	return dst
}

// transitivity is the global clustering coefficient 3·triangles / wedges
// (0 without wedges) from motif counts already in hand: every wedge (a
// path on three vertices, induced or not) is an induced 3-path (M32) or
// one of a triangle's (M31) three.
func transitivity(c motif.Counts) float64 {
	wedges := c.M32 + 3*c.M31
	if wedges == 0 {
		return 0
	}
	return float64(3*c.M31) / float64(wedges)
}

// Extract implements Algorithm 1 for a single series: build the configured
// multiscale visibility graphs and concatenate per-graph feature blocks.
// It allocates fresh scratch per call; batch extraction goes through
// ExtractWith / ExtractDataset, which reuse scratch across series.
func (e *Extractor) Extract(series []float64) ([]float64, error) {
	return e.ExtractWith(nil, series)
}

// ExtractWith is Extract computing all intermediates (scale pyramid,
// visibility graphs, motif counters) in sc's reusable buffers; only the
// returned feature vector is freshly allocated. A nil sc uses throwaway
// scratch. The output is byte-identical to Extract's regardless of scratch
// reuse — extraction is a pure function of the series.
func (e *Extractor) ExtractWith(sc *Scratch, series []float64) ([]float64, error) {
	return e.ExtractWithRings(sc, series, nil)
}

// ExtractWithRings is ExtractWith taking maintained visibility graphs for
// some scales — the entry point of the streaming engine (mvg.Stream).
// rings[i], when present and non-nil, holds the window of the i-th output
// scale (T_i under Uniscale and Multiscale), and each of its graphs that
// the configuration uses replaces a build. A ring's block is read off the
// ring in place: its maintained subgraph counts replace the motif
// enumeration, and its degrees and rows give the other statistics. Every
// graph without a ring is built from the series as in ExtractWith.
//
// The output is bit-identical to ExtractWith provided each ring holds the
// batch builders' graph of its scale, which holds exactly when
// preprocessing is structure-preserving at the bit level
// (Options.NoDetrend and Options.NoZNormalize set) and each ring was fed
// the scale's values as timeseries.HalveInto computes them — see
// docs/streaming.md. A ring must have exactly as many vertices as its
// scale has points.
func (e *Extractor) ExtractWithRings(sc *Scratch, series []float64, rings []*visibility.Incremental) ([]float64, error) {
	if sc == nil {
		sc = NewScratch()
	}
	if err := timeseries.Validate(series); err != nil {
		return nil, err
	}
	scales, err := e.scalesInto(sc, series)
	if err != nil {
		return nil, err
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("%w: n=%d tau=%d mode=%s",
			ErrSeriesTooShort, len(series), e.tau, e.opts.Scales)
	}
	out := make([]float64, 0, len(scales)*e.graphsPerScale()*e.perGraphWidth())
	for si, t := range scales {
		if len(t) < 2 {
			return nil, fmt.Errorf("%w: scale of %d points", ErrSeriesTooShort, len(t))
		}
		var inc *visibility.Incremental
		if si < len(rings) {
			inc = rings[si]
		}
		if e.opts.Graphs == VGAndHVG || e.opts.Graphs == VGOnly {
			var ring *graph.RingGraph
			if inc != nil {
				ring = inc.VG()
			}
			if out, err = e.scaleBlock(out, sc, t, ring, false); err != nil {
				return nil, err
			}
		}
		if e.opts.Graphs == VGAndHVG || e.opts.Graphs == HVGOnly {
			var ring *graph.RingGraph
			if inc != nil {
				ring = inc.HVG()
			}
			if out, err = e.scaleBlock(out, sc, t, ring, true); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// scaleBlock appends the feature block of scale t's VG (or HVG, when hvg
// is set). A ring supplies its maintained subgraph counts and is read in
// place; with no ring, the graph is built from t and its subgraphs
// enumerated.
func (e *Extractor) scaleBlock(dst []float64, sc *Scratch, t []float64, ring *graph.RingGraph, hvg bool) ([]float64, error) {
	if ring != nil {
		if ring.Len() != len(t) {
			return nil, fmt.Errorf("core: supplied ring graph has %d vertices, scale has %d", ring.Len(), len(t))
		}
		return e.graphBlock(dst, ring, ring.Subgraphs(), hvg, sc), nil
	}
	var edges [][2]int
	var err error
	if hvg {
		edges, err = sc.vis.HVGEdges(t)
	} else {
		edges, err = sc.vis.VGEdges(t)
	}
	if err != nil {
		return nil, err
	}
	sc.g.BuildUnchecked(len(t), edges)
	return e.graphBlock(dst, &sc.g, sc.motifs.Subgraphs(&sc.g), hvg, sc), nil
}

// ExtractDataset extracts features for every series in parallel across
// GOMAXPROCS workers (the pipeline is embarrassingly parallel, which the
// paper lists as a design goal). It is ExtractDatasetPool on a pool that
// lives for this one call, for one-shot callers with no pool to reuse.
// All series must yield equally long feature vectors, which holds when
// they share a common length.
func (e *Extractor) ExtractDataset(series [][]float64) ([][]float64, error) {
	pool := parallel.NewPool(NewScratch)
	defer pool.Close()
	return e.ExtractDatasetPool(context.TODO(), pool, 0, series)
}

// ExtractDatasetPool extracts features for every series on a
// caller-owned worker pool, across up to workers goroutines (<= 0
// selects GOMAXPROCS). Rows of the result are ordered like the input and
// are byte-identical for every worker count: jobs are index-addressed and
// each worker runs the pure per-series extraction with its own private
// scratch (see internal/parallel and docs/concurrency.md). Per-worker
// Scratch buffers survive across calls on the same pool, and the context
// is checked between per-series jobs so a cancelled batch stops burning
// CPU promptly (returning ctx.Err()). This is the engine behind
// mvg.Pipeline.
//
// Batches with fewer series than the resolved worker budget, all of them
// at least scaleParallelMinLen points long, are parallelized *within*
// each series instead: every (scale, graph-kind) pair of the multiscale
// pyramid becomes one pool job writing its fixed-width block of the
// feature vector, so a single 100k-point request no longer serializes on
// one worker. The routing only changes scheduling — the same pure
// per-graph computations write the same disjoint output slots, so rows
// stay byte-identical to the per-series path at every worker count.
func (e *Extractor) ExtractDatasetPool(ctx context.Context, pool *parallel.Pool[*Scratch], workers int, series [][]float64) ([][]float64, error) {
	n := len(series)
	if n == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	out := make([][]float64, n)
	if e.scaleParallel(workers, series) {
		if ctx == nil {
			ctx = context.Background()
		}
		for i := range series {
			v, err := e.extractSeriesOnPool(ctx, pool, workers, series[i])
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				return nil, fmt.Errorf("core: series %d: %w", i, err)
			}
			out[i] = v
		}
	} else {
		err := pool.ForEach(ctx, workers, n, func(sc *Scratch, i int) error {
			v, err := e.ExtractWith(sc, series[i])
			if err != nil {
				return fmt.Errorf("core: series %d: %w", i, err)
			}
			out[i] = v
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := checkWidths(out); err != nil {
		return nil, err
	}
	return out, nil
}

// scaleParallel reports whether a batch takes the in-series scale-parallel
// path: more workers available than series, every series long enough for
// per-scale jobs to amortize the pool hand-off, and more than one graph
// per series to fan out.
func (e *Extractor) scaleParallel(workers int, series [][]float64) bool {
	if e.opts.Scales == Uniscale && e.graphsPerScale() == 1 {
		return false
	}
	if parallel.Workers(workers, len(series)+1) <= len(series) {
		return false
	}
	for _, s := range series {
		if len(s) < scaleParallelMinLen {
			return false
		}
	}
	return true
}

// extractSeriesOnPool extracts one series with its per-scale graph builds
// fanned across the pool. It must run on the calling goroutine, never
// inside a pool job: Pool.ForEach submissions block on the task channel,
// so nesting it inside a worker could deadlock a saturated pool.
//
// Preprocessing and the pyramid run in a pooled coordination Scratch that
// stays alive (and untouched) for the duration of the fan-out, since the
// scale slices handed to the jobs alias its buffers; each job builds its
// graph and feature block in the pool worker's own Scratch. Jobs write
// disjoint fixed-width blocks of the result, in the exact block order of
// the sequential path.
func (e *Extractor) extractSeriesOnPool(ctx context.Context, pool *parallel.Pool[*Scratch], workers int, series []float64) ([]float64, error) {
	sc := e.coordScratch()
	defer e.coord.Put(sc)
	if err := timeseries.Validate(series); err != nil {
		return nil, err
	}
	scales, err := e.scalesInto(sc, series)
	if err != nil {
		return nil, err
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("%w: n=%d tau=%d mode=%s",
			ErrSeriesTooShort, len(series), e.tau, e.opts.Scales)
	}
	gps := e.graphsPerScale()
	width := e.perGraphWidth()
	buildVG := e.opts.Graphs == VGAndHVG || e.opts.Graphs == VGOnly
	out := make([]float64, len(scales)*gps*width)
	err = pool.ForEach(ctx, workers, len(scales)*gps, func(wsc *Scratch, job int) error {
		t := scales[job/gps]
		if len(t) < 2 {
			return fmt.Errorf("%w: scale of %d points", ErrSeriesTooShort, len(t))
		}
		off := job * width
		blk, err := e.scaleBlock(out[off:off:off+width], wsc, t, nil, !buildVG || job%gps == 1)
		if err != nil {
			return err
		}
		if len(blk) != width {
			return fmt.Errorf("core: internal: graph block width %d, want %d", len(blk), width)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// coordScratch hands out a coordination Scratch for the scale-parallel
// path, growing the pool on demand.
func (e *Extractor) coordScratch() *Scratch {
	if sc, ok := e.coord.Get().(*Scratch); ok {
		return sc
	}
	return NewScratch()
}

// checkWidths verifies every row of a completed batch has the width of
// row 0 — the invariant classifiers rely on, broken only by datasets
// mixing series lengths.
func checkWidths(out [][]float64) error {
	width := len(out[0])
	for i, v := range out {
		if len(v) != width {
			return fmt.Errorf("core: inconsistent feature width: series %d has %d, series 0 has %d (unequal series lengths?)", i, len(v), width)
		}
	}
	return nil
}
