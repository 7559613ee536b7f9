package mvg

import (
	"fmt"

	"mvg/internal/core"
	"mvg/internal/graph"
	"mvg/internal/motif"
	"mvg/internal/visibility"
)

// GraphSummary exposes one visibility graph and its statistical features
// for exploration, visualization and the examples. The fields mirror one
// per-graph block of the classification feature vector (docs/features.md):
// the grouped motif probabilities plus the non-MPD statistics.
type GraphSummary struct {
	// Kind is "VG" or "HVG".
	Kind string
	// N and M are the vertex and edge counts.
	N, M int
	// Edges lists undirected edges as (i, j) with i < j.
	Edges [][2]int
	// Density is 2M / N(N-1).
	Density float64
	// Assortativity is Newman's degree assortativity (0 when undefined).
	Assortativity float64
	// KCore is the graph's degeneracy (the paper's K-core feature).
	KCore int
	// MaxDegree, MinDegree, MeanDegree summarize the degree sequence.
	MaxDegree, MinDegree int
	MeanDegree           float64
	// MotifProbabilities maps motif names (M21..M411, see docs/features.md
	// for the shape each name denotes) to their grouped probabilities.
	MotifProbabilities map[string]float64
}

func summarize(kind string, g *graph.Graph) GraphSummary {
	r, _ := g.Assortativity()
	maxD, minD, meanD := g.DegreeStats()
	probs := motif.Count(g).Probabilities()
	mp := make(map[string]float64, len(motif.Names))
	for i, name := range motif.Names {
		mp[name] = probs[i]
	}
	return GraphSummary{
		Kind:               kind,
		N:                  g.N(),
		M:                  g.M(),
		Edges:              g.Edges(),
		Density:            g.Density(),
		Assortativity:      r,
		KCore:              g.Degeneracy(),
		MaxDegree:          maxD,
		MinDegree:          minD,
		MeanDegree:         meanD,
		MotifProbabilities: mp,
	}
}

// SummarizeVG builds the natural visibility graph of the series and
// returns its summary. The series is used as-is (no detrending or
// normalization — visibility graphs are affine invariant).
func SummarizeVG(series []float64) (GraphSummary, error) {
	g, err := visibility.VG(series)
	if err != nil {
		return GraphSummary{}, err
	}
	return summarize("VG", g), nil
}

// SummarizeHVG builds the horizontal visibility graph of the series and
// returns its summary.
func SummarizeHVG(series []float64) (GraphSummary, error) {
	g, err := visibility.HVG(series)
	if err != nil {
		return GraphSummary{}, err
	}
	return summarize("HVG", g), nil
}

// MultiscaleLengths returns the lengths of the multiscale approximations
// (T0, T1, ..., Tm) the default pipeline would build for a series of
// length n with threshold tau (0 = the paper's default of 15). These are
// the scales whose per-graph blocks make up the feature vector, in the
// order documented in docs/features.md.
func MultiscaleLengths(n, tau int) ([]int, error) {
	if n < 2 {
		return nil, fmt.Errorf("mvg: series too short: %d", n)
	}
	e, err := core.NewExtractor(core.Options{Tau: tau})
	if err != nil {
		return nil, err
	}
	lengths := make([]int, e.NumScales(n))
	for i := range lengths {
		lengths[i] = n
		n /= 2
	}
	return lengths, nil
}
