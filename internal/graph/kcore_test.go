package graph_test

import (
	"math/rand"
	"testing"

	"mvg/internal/graph"
	"mvg/internal/visibility"
)

// TestHVGDegeneracyIdentity checks the HVG identity against a peel of the
// built graph on series of 2–200 points whose HVGs range from a path
// (constant and ramp series) to the tie-heavy graphs of few distinct
// levels and integer values, and the generic graphs of Gaussian noise.
func TestHVGDegeneracyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := []struct {
		name  string
		value func(i int) float64
	}{
		{"constant", func(int) float64 { return 1.5 }},
		{"ramp", func(i int) float64 { return float64(i) }},
		{"falling", func(i int) float64 { return -float64(i) }},
		{"three-level", func(int) float64 { return float64(rng.Intn(3)) }},
		{"integer", func(int) float64 { return float64(rng.Intn(10)) }},
		{"gaussian", func(int) float64 { return rng.NormFloat64() }},
	}
	var b visibility.Builder
	var g graph.Graph
	var s graph.CoreScratch
	seen := map[int]bool{}
	for _, shape := range shapes {
		for n := 2; n <= 200; n++ {
			for rep := 0; rep < 5; rep++ {
				series := make([]float64, n)
				for i := range series {
					series[i] = shape.value(i)
				}
				edges, err := b.HVGEdges(series)
				if err != nil {
					t.Fatal(err)
				}
				g.BuildUnchecked(n, edges)
				want := g.DegeneracyScratch(&s)
				if got := graph.HVGDegeneracy(g.N(), g.M()); got != want {
					t.Fatalf("%s, n=%d: HVGDegeneracy(%d, %d) = %d, peel %d (series %v)",
						shape.name, n, g.N(), g.M(), got, want, series)
				}
				seen[want] = true
			}
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("degeneracies seen %v, want both 1 and 2", seen)
	}
	if got := graph.HVGDegeneracy(1, 0); got != 0 {
		t.Fatalf("HVGDegeneracy(1, 0) = %d, want 0", got)
	}
}
