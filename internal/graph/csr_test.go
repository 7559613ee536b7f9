package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// refAdjacency is the pre-CSR slice-of-slices substrate kept as the
// differential-test reference: per-vertex adjacency slices appended
// edge-by-edge and sorted afterwards, exactly what the old graph.Graph did.
type refAdjacency struct {
	adj [][]int32
	m   int
}

func newRef(n int, edges [][2]int) *refAdjacency {
	r := &refAdjacency{adj: make([][]int32, n)}
	for _, e := range edges {
		r.adj[e[0]] = append(r.adj[e[0]], int32(e[1]))
		r.adj[e[1]] = append(r.adj[e[1]], int32(e[0]))
		r.m++
	}
	for v := range r.adj {
		sort.Slice(r.adj[v], func(i, j int) bool { return r.adj[v][i] < r.adj[v][j] })
	}
	return r
}

// randomEdgeList returns a duplicate-free edge list on n vertices.
func randomEdgeList(n int, p float64, rng *rand.Rand) [][2]int {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	// Shuffle and randomly flip orientations: the CSR build must not
	// depend on edge order or endpoint order.
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := range edges {
		if rng.Intn(2) == 0 {
			edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
		}
	}
	return edges
}

// TestCSRAgainstSliceReference pins the counting-sort CSR build against the
// old slice-backed adjacency on random edge lists: identical sorted rows,
// degrees and forward splits.
func TestCSRAgainstSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(40)
		edges := randomEdgeList(n, rng.Float64(), rng)
		g := FromEdgesUnchecked(n, edges)
		ref := newRef(n, edges)

		if g.N() != n || g.M() != ref.m {
			t.Fatalf("iter %d: N/M = %d/%d, want %d/%d", iter, g.N(), g.M(), n, ref.m)
		}
		offs, nbrs := g.CSR()
		fwd := g.Forward()
		if len(offs) != n+1 || int(offs[n]) != len(nbrs) || len(nbrs) != 2*ref.m {
			t.Fatalf("iter %d: CSR shape offsets=%d neighbors=%d m=%d", iter, len(offs), len(nbrs), ref.m)
		}
		for v := 0; v < n; v++ {
			row := g.Neighbors(v)
			want := ref.adj[v]
			if len(row) != len(want) {
				t.Fatalf("iter %d: degree(%d) = %d, want %d", iter, v, len(row), len(want))
			}
			for i := range row {
				if row[i] != want[i] {
					t.Fatalf("iter %d: row %d = %v, want %v", iter, v, row, want)
				}
			}
			// Forward split: everything before is < v, everything after > v.
			for p := offs[v]; p < offs[v+1]; p++ {
				if before := p < fwd[v]; before != (nbrs[p] < int32(v)) {
					t.Fatalf("iter %d: forward split of %d misplaced entry %d (fwd=%d)",
						iter, v, nbrs[p], fwd[v]-offs[v])
				}
			}
		}
	}
}

// TestCSRScratchReuse pins that rebuilding a graph in place over shrinking
// and growing vertex counts never leaks rows from a previous build.
func TestCSRScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var g Graph
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(60)
		edges := randomEdgeList(n, 0.3, rng)
		g.BuildUnchecked(n, edges)
		ref := newRef(n, edges)
		if g.N() != n || g.M() != ref.m {
			t.Fatalf("iter %d: N/M mismatch after reuse", iter)
		}
		for v := 0; v < n; v++ {
			row := g.Neighbors(v)
			want := ref.adj[v]
			if len(row) != len(want) {
				t.Fatalf("iter %d: reused degree(%d) = %d, want %d", iter, v, len(row), len(want))
			}
			for i := range row {
				if row[i] != want[i] {
					t.Fatalf("iter %d: reused row %d = %v, want %v", iter, v, row, want)
				}
			}
		}
	}
	// Rebuilding to an edgeless graph must clear every row.
	g.BuildUnchecked(5, nil)
	if g.M() != 0 || g.N() != 5 {
		t.Fatal("edgeless rebuild did not clear the graph")
	}
	for v := 0; v < 5; v++ {
		if len(g.Neighbors(v)) != 0 {
			t.Fatalf("edgeless rebuild left neighbors at %d", v)
		}
	}
}
