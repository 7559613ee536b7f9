package core

import (
	"mvg/internal/graph"
	"mvg/internal/motif"
	"mvg/internal/visibility"
)

// Scratch holds every reusable buffer one extraction worker needs: the
// preprocessing buffer, the PAA pyramid levels, the visibility-graph
// builder (edge list and stacks), the graph's flat CSR arrays (offsets,
// neighbors, forward splits and the counting-sort work arrays — see
// docs/perf.md), the motif counter's work arrays and the core-decomposition
// arrays. After warm-up, extracting a series with a Scratch allocates only
// the returned feature vector: rebuilding one visibility graph per scale
// reuses the embedded graph's flat storage in place.
//
// A Scratch must not be shared between goroutines; the batch executor
// (internal/parallel) creates one per worker. See docs/concurrency.md.
type Scratch struct {
	pre      []float64   // preprocessed T0 (z-normalize + detrend)
	pyramid  [][]float64 // PAA halving buffers, one per scale below T0
	scaleSet [][]float64 // slice headers of the scales handed to extraction
	vis      visibility.Builder
	g        graph.Graph
	motifs   motif.Counter
	cores    graph.CoreScratch
	deg      []int // degree sequence of the graph a feature block reads
}

// NewScratch returns an empty Scratch ready for use with
// Extractor.ExtractWith. Buffers grow on first use and are retained across
// calls.
func NewScratch() *Scratch { return &Scratch{} }
