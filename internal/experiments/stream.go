package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mvg/internal/core"
	"mvg/internal/graph"
	"mvg/internal/visibility"
)

// RunStream measures the streaming sliding-window engine against per-slide
// full recomputation — the workload the batch tables cannot see: samples
// arriving one at a time with features due every hop. It compares the push
// throughput of incremental maintenance (internal/visibility.Pyramid, the
// engine behind mvg.Stream: window graphs and their subgraph counts kept
// current per sample) against rebuilding the window's graphs on every
// slide (hop=1, the worst case), reports feature throughput at a hop on
// each side of mvg.Stream's maintain-or-rebuild rule, and verifies the
// determinism contract — stream features bit-identical to batch
// extraction — on the fly.
func (r *Runner) RunStream() error {
	w := r.Cfg.Out
	windowLen, total := 512, 8192
	if !r.Cfg.Quick {
		windowLen, total = 1024, 131072
	}
	// The streaming configurations: both graphs, preprocessing off so
	// incremental maintenance is bit-exact (docs/streaming.md).
	uvg, err := core.NewExtractor(core.Options{Scales: core.Uniscale, NoDetrend: true, NoZNormalize: true})
	if err != nil {
		return err
	}
	mvg, err := core.NewExtractor(core.Options{Scales: core.FullMultiscale, NoDetrend: true, NoZNormalize: true})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(r.Cfg.Seed))
	samples := make([]float64, total)
	level := 0.0
	for i := range samples {
		level += rng.NormFloat64()
		samples[i] = level
	}

	fmt.Fprintf(w, "== Stream: sliding-window graph maintenance, window %d, %d samples ==\n", windowLen, total)
	tbl := newTable(w)
	tbl.header("Mode", "Hop", "Samples/sec", "Speedup", "Identical")

	// Incremental maintenance at hop=1: every push keeps both window
	// graphs and their subgraph counts current, as mvg.Stream does at a
	// hop this small.
	inc, err := visibility.NewPyramid(windowLen, 0, true, true)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, x := range samples {
		if err := inc.Push(x); err != nil {
			return err
		}
	}
	incRate := float64(total) / time.Since(start).Seconds()

	// Full recompute at hop=1: materialize the window and rerun the batch
	// builders per slide, with every buffer reused.
	ring := make([]float64, windowLen)
	window := make([]float64, windowLen)
	var builder visibility.Builder
	var vg, hvg graph.Graph
	start = time.Now()
	rebuilt := 0
	for i, x := range samples {
		ring[i%windowLen] = x
		if i+1 < windowLen {
			continue
		}
		for k := 0; k < windowLen; k++ {
			window[k] = ring[(i+1+k)%windowLen]
		}
		edges, err := builder.VGEdges(window)
		if err != nil {
			return err
		}
		vg.BuildUnchecked(windowLen, edges)
		edges, err = builder.HVGEdges(window)
		if err != nil {
			return err
		}
		hvg.BuildUnchecked(windowLen, edges)
		rebuilt++
		if time.Since(start) > 5*time.Second {
			break // rate is stable long before the stream drains
		}
	}
	recRate := float64(rebuilt) / time.Since(start).Seconds()

	// Features at a serving hop on each side of the maintain-or-rebuild
	// rule: uniscale at hop windowLen/4 keeps only the samples and builds
	// the window's graphs per hop; multiscale at hop 8 closes maintained
	// counts on T0 and on the three pyramid levels the hop aligns with.
	uvgHop := windowLen / 4
	samplesOnly, err := visibility.NewPyramid(windowLen, 0, false, false)
	if err != nil {
		return err
	}
	uvgRate, uvgHops, uvgSame, err := streamFeatures(uvg, samplesOnly, samples, uvgHop)
	if err != nil {
		return err
	}
	levels := visibility.AlignedLevels(windowLen, 8, mvg.NumScales(windowLen)-1)
	rings, err := visibility.NewPyramid(windowLen, levels, true, true)
	if err != nil {
		return err
	}
	mvgRate, mvgHops, mvgSame, err := streamFeatures(mvg, rings, samples, 8)
	if err != nil {
		return err
	}

	tbl.row("incremental push", "1", fmt.Sprintf("%.0f", incRate), fmt.Sprintf("%.1fx", incRate/recRate), "—")
	tbl.row("full recompute", "1", fmt.Sprintf("%.0f", recRate), "1.0x", "—")
	tbl.row("uvg rebuild+features", fmt.Sprint(uvgHop), fmt.Sprintf("%.0f", uvgRate), "", fmt.Sprintf("%v (%d hops)", uvgSame, uvgHops))
	tbl.row("mvg maintained+features", "8", fmt.Sprintf("%.0f", mvgRate), "", fmt.Sprintf("%v (%d hops)", mvgSame, mvgHops))
	tbl.flush()
	fmt.Fprintln(w)
	if !uvgSame || !mvgSame {
		return fmt.Errorf("stream: features diverged from batch extraction")
	}
	return nil
}

// streamFeatures pushes samples through pyr and extracts the window's
// features on every hop, as mvg.Stream does. It returns the stream's
// samples per second (the batch check excluded), the hops taken, and
// whether every vector was bit-identical to batch extraction of the
// window.
func streamFeatures(e *core.Extractor, pyr *visibility.Pyramid, samples []float64, hop int) (rate float64, hops int, identical bool, err error) {
	windowLen := pyr.Window().WindowLen()
	sc := core.NewScratch()
	var window []float64
	var spent time.Duration
	identical = true
	for i, x := range samples {
		start := time.Now()
		if err := pyr.Push(x); err != nil {
			return 0, 0, false, err
		}
		if i+1 < windowLen || (i+1-windowLen)%hop != 0 {
			spent += time.Since(start)
			continue
		}
		window = pyr.Window().WindowInto(window)
		got, err := e.ExtractWithRings(sc, window, pyr.Aligned())
		spent += time.Since(start)
		if err != nil {
			return 0, 0, false, err
		}
		hops++
		want, err := e.ExtractWith(nil, window)
		if err != nil {
			return 0, 0, false, err
		}
		if !matricesEqual([][]float64{got}, [][]float64{want}) {
			identical = false
		}
	}
	return float64(len(samples)) / spent.Seconds(), hops, identical, nil
}
