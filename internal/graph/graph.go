// Package graph provides the undirected-graph substrate used by the MVG
// pipeline: a flat compressed-sparse-row (CSR) representation plus the
// statistical graph features the paper extracts — density, degree
// statistics, k-core number (degeneracy) via the Batagelj–Zaversnik O(m)
// algorithm, and the degree assortativity coefficient (Newman's r).
//
// # Memory layout
//
// A built graph is two flat arrays: offsets (length N+1) and neighbors
// (length 2M). The adjacency row of vertex v is the contiguous slice
// neighbors[offsets[v]:offsets[v+1]], always sorted ascending. The layout
// is produced from an edge stream by a two-pass counting scatter (degree
// count → prefix sum → destination-grouped scatter → source-row scatter)
// that emits every row already sorted, so no comparison sort ever runs —
// see docs/perf.md for the construction in detail. All per-feature walks
// (motif counting, core decomposition, assortativity)
// traverse these contiguous rows, which is what keeps their constants low
// on the sparse graphs visibility transforms produce.
package graph

import (
	"math"
	"sort"

	"mvg/internal/buf"
)

// Graph is a simple undirected graph on vertices 0..N-1 with sorted
// adjacency rows stored in compressed-sparse-row form and no self-loops or
// parallel edges.
//
// A graph is built in one pass from a whole edge list (BuildUnchecked,
// FromEdgesUnchecked, RingGraph.ToCSR) and is read-only afterwards. All
// backing arrays are retained across BuildUnchecked, so rebuilding a graph
// of similar size performs no allocations.
type Graph struct {
	n         int
	m         int     // number of edges
	offsets   []int32 // len n+1; row v is neighbors[offsets[v]:offsets[v+1]]
	neighbors []int32 // len 2m; each row sorted ascending
	forward   []int32 // len n; index in neighbors of the first entry of row v that is > v

	elist []int32 // flat (u,v) edge pairs, len 2m: the input of build

	scatter []int32 // counting-sort work array: arc sources grouped by destination
	cursor  []int32 // counting-sort work array: per-vertex write cursors
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency row of v. The returned slice is a
// view into the graph's flat neighbor array and must not be modified; it is
// valid until the graph is next rebuilt.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// FromEdgesUnchecked builds a graph on n vertices from a known-valid edge
// list (as produced by the visibility-graph constructors): every endpoint
// in [0, n), no self-loops and no edge listed twice in either orientation.
// Nothing is checked.
func FromEdgesUnchecked(n int, edges [][2]int) *Graph {
	g := &Graph{}
	g.BuildUnchecked(n, edges)
	return g
}

// BuildUnchecked resets g to n vertices and bulk-loads a known-valid,
// duplicate-free edge list, reusing g's backing storage. It is the in-place
// counterpart of FromEdgesUnchecked, used by hot loops (core.Scratch) that
// build one visibility graph per scale and discard it immediately. The edge
// stream is consumed directly by the counting-sort CSR build; edges may
// alias a reusable builder buffer (it is copied, not retained).
func (g *Graph) BuildUnchecked(n int, edges [][2]int) {
	if n < 0 {
		n = 0
	}
	g.n = n
	g.m = len(edges)
	el := buf.Grow(g.elist, 2*len(edges))
	for i, e := range edges {
		el[2*i] = int32(e[0])
		el[2*i+1] = int32(e[1])
	}
	g.elist = el
	g.build()
}

// build constructs the CSR arrays from the flat edge list with a counting
// sort that leaves every row sorted, in O(n + m) with no comparisons:
//
//  1. count degrees into offsets and prefix-sum them,
//  2. scatter arc *sources* into buckets grouped by arc *destination*
//     (bucket boundaries are the same offsets array — for undirected arcs
//     the in-degree equals the degree),
//  3. walk destinations in ascending order, appending each destination to
//     its sources' rows; since destinations ascend and each row cursor only
//     moves forward, every row comes out sorted.
func (g *Graph) build() {
	n, arcs := g.n, 2*g.m
	g.offsets = buf.GrowZero(g.offsets, n+1)
	g.forward = buf.GrowZero(g.forward, n)
	offsets, forward := g.offsets, g.forward
	el := g.elist
	for i := 0; i < len(el); i += 2 {
		u, v := el[i], el[i+1]
		offsets[u+1]++
		offsets[v+1]++
		// Count forward degrees (neighbors greater than the vertex): the
		// smaller endpoint of each edge gains one forward neighbor.
		if u < v {
			forward[u]++
		} else {
			forward[v]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	// Forward count → absolute index of the first forward entry of each row.
	for v := 0; v < n; v++ {
		forward[v] = offsets[v+1] - forward[v]
	}
	g.scatter = buf.Grow(g.scatter, arcs)
	g.cursor = buf.Grow(g.cursor, n)
	scatter, cursor := g.scatter, g.cursor
	copy(cursor, offsets[:n])
	for i := 0; i < len(el); i += 2 {
		u, v := el[i], el[i+1]
		scatter[cursor[v]] = u
		cursor[v]++
		scatter[cursor[u]] = v
		cursor[u]++
	}
	g.neighbors = buf.Grow(g.neighbors, arcs)
	neighbors := g.neighbors
	copy(cursor, offsets[:n])
	for d := 0; d < n; d++ {
		d32 := int32(d)
		for p := offsets[d]; p < offsets[d+1]; p++ {
			s := scatter[p]
			neighbors[cursor[s]] = d32
			cursor[s]++
		}
	}
}

// CSR returns the graph's flat compressed-sparse-row arrays: offsets has
// length N()+1 and neighbors concatenates the sorted adjacency rows (length
// 2·M()), with row v at neighbors[offsets[v]:offsets[v+1]]. Feature kernels
// (motif counting, core decomposition) hoist these once and index directly,
// avoiding a method call per inner-loop row access. The returned slices are
// owned by the graph, must not be modified, and are valid until the graph
// is next rebuilt.
func (g *Graph) CSR() (offsets, neighbors []int32) {
	return g.offsets, g.neighbors
}

// Forward returns the per-vertex forward-split array: forward[v] is the
// index in the CSR neighbor array of the first entry of row v greater than
// v, so neighbors[forward[v]:offsets[v+1]] lists v's higher-numbered
// neighbors and neighbors[offsets[v]:forward[v]] its lower-numbered ones
// (each edge appears exactly once across all forward ranges). Kernels that
// enumerate each edge or triangle once iterate forward ranges instead of
// filtering full rows. Ownership and validity follow CSR.
func (g *Graph) Forward() []int32 {
	return g.forward
}

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	// Search the shorter row.
	a := g.Neighbors(u)
	if b := g.Neighbors(v); len(b) < len(a) {
		a = b
		v = u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// Edges returns all edges as (u,v) pairs with u < v, in vertex order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// DegreesInto writes the degree sequence into dst, growing it as needed,
// and returns the filled slice.
func (g *Graph) DegreesInto(dst []int) []int {
	dst = buf.Grow(dst, g.n)
	for v := 0; v < g.n; v++ {
		dst[v] = int(g.offsets[v+1] - g.offsets[v])
	}
	return dst
}

// Density returns 2|E| / (|V| (|V|-1)) (equation 2 of the paper).
// Graphs with fewer than two vertices have density 0.
func (g *Graph) Density() float64 { return DensityOf(g.n, g.m) }

// DensityOf is the density of a graph with n vertices and m edges.
func DensityOf(n, m int) float64 {
	if n < 2 {
		return 0
	}
	nf := float64(n)
	return 2 * float64(m) / (nf * (nf - 1))
}

// MeanDegreeOf is the mean degree 2m/n of a graph with n vertices and m
// edges, 0 for the empty graph.
func MeanDegreeOf(n, m int) float64 {
	if n == 0 {
		return 0
	}
	return 2 * float64(m) / float64(n)
}

// DegreeRange returns the largest and smallest of the degrees, both 0
// when there are none.
func DegreeRange(deg []int) (maxDeg, minDeg int) {
	if len(deg) == 0 {
		return 0, 0
	}
	maxDeg, minDeg = deg[0], deg[0]
	for _, d := range deg[1:] {
		maxDeg = max(maxDeg, d)
		minDeg = min(minDeg, d)
	}
	return maxDeg, minDeg
}

// DegreeStats returns the maximum, minimum and mean vertex degree.
// All are 0 for the empty graph. It reads the degrees off the CSR
// offsets, so it allocates nothing.
func (g *Graph) DegreeStats() (maxDeg, minDeg int, meanDeg float64) {
	if g.n == 0 {
		return 0, 0, 0
	}
	maxDeg, minDeg = math.MinInt, math.MaxInt
	for v := range g.n {
		d := int(g.offsets[v+1] - g.offsets[v])
		maxDeg = max(maxDeg, d)
		minDeg = min(minDeg, d)
	}
	return maxDeg, minDeg, MeanDegreeOf(g.n, g.m)
}

// IsConnected reports whether the graph is connected (the empty graph and
// single-vertex graph count as connected).
func (g *Graph) IsConnected() bool {
	n := g.n
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, int(w))
			}
		}
	}
	return count == n
}
