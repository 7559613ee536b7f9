package graph

import "mvg/internal/buf"

// CoreScratch holds the reusable work arrays of the per-graph statistics
// that need O(n) state — the degree sequence, core decomposition and the
// degree-distribution entropy — so hot loops can process one graph after
// another without reallocating. One CoreScratch serves a CSR Graph and a
// RingGraph alike. The zero value is ready for use.
type CoreScratch struct {
	core, deg, bin, start, vert, pos []int
}

// histogram fills s.bin with the histogram of the degrees in s.deg —
// bin[d] vertices of degree d, for d up to the maximum degree — and
// returns it.
func (s *CoreScratch) histogram() []int {
	maxDeg := 0
	for _, d := range s.deg {
		maxDeg = max(maxDeg, d)
	}
	s.bin = buf.GrowZero(s.bin, maxDeg+1)
	bin := s.bin
	for _, d := range s.deg {
		bin[d]++
	}
	return bin
}

// peel bucket-sorts the vertices by the degrees in s.deg, the set-up of
// a Batagelj–Zaversnik peel over vertices 0..len(deg)-1, and returns the
// peel's state in s's buffers: deg, which the peel consumes, vert, the
// vertices by current degree, pos, each one's place in vert, and start,
// where the block of each degree begins. Whatever the adjacency layout, a
// peel walks vert in order, reads each vertex's degree as its core
// number, and lowers every neighbour.
func (s *CoreScratch) peel() (deg, start, vert, pos []int) {
	deg = s.deg
	cursor := s.histogram()
	s.start = buf.Grow(s.start, len(cursor))
	start = s.start
	sum := 0
	for d, c := range cursor {
		start[d] = sum
		cursor[d] = sum
		sum += c
	}
	s.vert = buf.Grow(s.vert, len(deg))
	s.pos = buf.Grow(s.pos, len(deg))
	vert, pos = s.vert, s.pos
	for v, d := range deg {
		pos[v] = cursor[d]
		vert[cursor[d]] = v
		cursor[d]++
	}
	return deg, start, vert, pos
}

// lower removes the arc to w of the vertex being peeled, whose core
// number is dv: a neighbour of higher current degree moves to the front
// of its degree block and drops into the block below. One of degree at
// most dv keeps it, as its core number is at least dv already. The slices
// are peel's, passed one by one so that they stay in registers.
func lower(deg, start, vert, pos []int, w, dv int) {
	dw := deg[w]
	if dw <= dv {
		return
	}
	pw, ps := pos[w], start[dw]
	if u := vert[ps]; u != w {
		vert[ps], vert[pw] = w, u
		pos[w], pos[u] = ps, pw
	}
	start[dw]++
	deg[w]--
}

// CoreNumbers computes the core number of every vertex with the
// Batagelj–Zaversnik bucket algorithm, which runs in O(|V| + |E|) time.
// The core number of v is the largest k such that v belongs to the k-core
// (the maximal subgraph in which every vertex has degree >= k, equation 3
// of the paper).
func (g *Graph) CoreNumbers() []int {
	return g.CoreNumbersScratch(&CoreScratch{})
}

// CoreNumbersScratch is CoreNumbers computed in s's reusable buffers. The
// returned slice aliases s and is valid until the next call with the same
// scratch.
func (g *Graph) CoreNumbersScratch(s *CoreScratch) []int {
	s.deg = g.DegreesInto(s.deg)
	// No zero-fill needed: the peel assigns core[v] for every vertex.
	s.core = buf.Grow(s.core, g.n)
	core := s.core
	deg, start, vert, pos := s.peel()
	offs, nbrs := g.offsets, g.neighbors
	for i := 0; i < g.n; i++ {
		v := vert[i]
		dv := deg[v]
		core[v] = dv
		for _, w := range nbrs[offs[v]:offs[v+1]] {
			lower(deg, start, vert, pos, int(w), dv)
		}
	}
	return core
}

// Degeneracy returns the maximum core number over all vertices — the K of
// equation 3 in the paper ("K-core" feature). It is 0 for edgeless graphs.
func (g *Graph) Degeneracy() int {
	return g.DegeneracyScratch(&CoreScratch{})
}

// DegeneracyScratch is Degeneracy computed in s's reusable buffers.
func (g *Graph) DegeneracyScratch(s *CoreScratch) int {
	maxCore := 0
	for _, c := range g.CoreNumbersScratch(s) {
		maxCore = max(maxCore, c)
	}
	return maxCore
}

// DegeneracyScratch returns the degeneracy of the live window, equal to
// Graph.DegeneracyScratch of its ToCSR snapshot: the same peel, walking
// the ring's rows instead of CSR ones.
func (r *RingGraph) DegeneracyScratch(s *CoreScratch) int {
	s.deg = r.DegreesInto(s.deg)
	deg, start, vert, pos := s.peel()
	first := uint32(r.start)
	k := 0
	for i := 0; i < r.count; i++ {
		v := vert[i]
		dv := deg[v]
		k = max(k, dv)
		slot := (r.start + v) & r.mask
		for _, a := range r.rows[slot][r.heads[slot]:] {
			lower(deg, start, vert, pos, int(a.id-first), dv)
		}
	}
	return k
}

// HVGDegeneracy is the degeneracy of a horizontal visibility graph with n
// vertices and m edges: 0 without edges, 1 when m = n−1 and 2 otherwise.
// It equals DegeneracyScratch on the graph, without a peel.
//
// An HVG holds the path through its samples in time order, since
// neighbouring samples always see each other, so it is connected and has
// m ≥ n−1 edges; with m = n−1 it is that path, a tree. It is also
// outerplanar: drawn with its vertices on a line in time order and every
// edge as an arc above it, two edges (a,b) and (c,d) with a < c < b < d
// would cross, but (a,b) needs x_c < x_b and (c,d) needs x_b < x_c. An
// outerplanar graph always has a vertex of degree at most two, and so has
// each of its subgraphs, which bounds the degeneracy by 2; a graph with a
// cycle has degeneracy at least 2.
func HVGDegeneracy(n, m int) int {
	switch {
	case m == 0:
		return 0
	case m == n-1:
		return 1
	default:
		return 2
	}
}
