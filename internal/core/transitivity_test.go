package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mvg/internal/graph"
	"mvg/internal/motif"
)

// graphOf builds a graph on n vertices from an edge list.
func graphOf(n int, edges ...[2]int) *graph.Graph {
	return graph.FromEdgesUnchecked(n, edges)
}

// randomGraph builds a G(n,p) graph.
func randomGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return graphOf(n, edges...)
}

func TestTransitivityKnown(t *testing.T) {
	var k5, p5 [][2]int
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5 = append(k5, [2]int{u, v})
		}
		if u > 0 {
			p5 = append(p5, [2]int{u - 1, u})
		}
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K5", graphOf(5, k5...), 1},
		{"P5", graphOf(5, p5...), 0},
		// Triangle 0,1,2 with a pendant 3 on 0: one triangle (×3 = 3)
		// over wedges 3+1+1+0 = 5.
		{"paw", graphOf(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}, [2]int{0, 3}), 3.0 / 5},
		{"edgeless", graphOf(3), 0},
	} {
		if got := transitivity(motif.Count(tc.g)); got != tc.want {
			t.Errorf("%s: transitivity = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTransitivityBounds checks that the ratio stays in [0, 1] over the
// whole range of edge densities.
func TestTransitivityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := transitivity(motif.Count(randomGraph(25, rng.Float64(), rng)))
		return tr >= 0 && tr <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTransitivityMatchesMotifRatio checks the ratio against triangles and
// induced wedges counted by brute force over every vertex triple.
func TestTransitivityMatchesMotifRatio(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 20
		g := randomGraph(n, 0.3, rng)
		var tri, wedge int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for k := j + 1; k < n; k++ {
					e := 0
					for _, p := range [][2]int{{i, j}, {i, k}, {j, k}} {
						if g.HasEdge(p[0], p[1]) {
							e++
						}
					}
					switch e {
					case 3:
						tri++
					case 2:
						wedge++
					}
				}
			}
		}
		want := 0.0
		if 3*tri+wedge > 0 {
			want = float64(3*tri) / float64(3*tri+wedge)
		}
		got := transitivity(motif.Count(g))
		return got == want && got >= 0 && got <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
