package graph

import "mvg/internal/buf"

// CoreScratch holds the reusable work arrays of the per-graph statistics
// that need O(n) state — core decomposition and the degree-distribution
// entropy — so hot loops can process one graph after another without
// reallocating. The zero value is ready for use.
type CoreScratch struct {
	core, deg, bin, start, vert, pos, fill []int
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
	n := g.N()
	// No zero-fill needed: the peel loop assigns core[v] for every vertex.
	s.core = buf.Grow(s.core, n)
	core := s.core
	if n == 0 {
		return core
	}
	s.deg = g.DegreesInto(s.deg)
	deg := s.deg
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Bucket sort vertices by degree.
	s.bin = buf.GrowZero(s.bin, maxDeg+2)
	bin := s.bin // bin[d] = start index of degree-d block in vert
	for _, d := range deg {
		bin[d+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	s.start = buf.Grow(s.start, maxDeg+1)
	start := s.start
	copy(start, bin[:maxDeg+1])
	s.vert = buf.Grow(s.vert, n)
	s.pos = buf.Grow(s.pos, n)
	vert := s.vert // vertices ordered by current degree
	pos := s.pos   // position of each vertex in vert
	s.fill = buf.Grow(s.fill, maxDeg+1)
	fill := s.fill
	copy(fill, start)
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = v
		fill[deg[v]]++
	}
	// Peel vertices in nondecreasing degree order.
	offs, nbrs := g.offsets, g.neighbors
	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = deg[v]
		for _, wi := range nbrs[offs[v]:offs[v+1]] {
			w := int(wi)
			if deg[w] > deg[v] {
				dw := deg[w]
				pw := pos[w]
				ps := start[dw]
				u := vert[ps]
				if u != w {
					// Swap w with the first vertex of its degree block.
					vert[ps], vert[pw] = w, u
					pos[w], pos[u] = ps, pw
				}
				start[dw]++
				deg[w]--
			}
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
		if c > maxCore {
			maxCore = c
		}
	}
	return maxCore
}

// KCore returns the vertex set of the k-core: every vertex whose core
// number is at least k.
func (g *Graph) KCore(k int) []int {
	var out []int
	for v, c := range g.CoreNumbers() {
		if c >= k {
			out = append(out, v)
		}
	}
	return out
}
