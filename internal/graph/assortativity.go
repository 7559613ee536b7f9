package graph

import "math"

// Assortativity returns the degree assortativity coefficient — the Pearson
// correlation of remaining degrees across edges (Newman 2003, equation 4 of
// the paper). It runs in O(|E|) time.
//
// The second return value reports whether the coefficient is defined: it is
// false when the graph has no edges or when all edge-endpoint degrees are
// equal (zero variance), in which case the coefficient is conventionally 0.
func (g *Graph) Assortativity() (float64, bool) {
	if g.m == 0 {
		return 0, false
	}
	offs, nbrs := g.offsets, g.neighbors
	var s degreeSums
	for u := 0; u < g.N(); u++ {
		row := nbrs[offs[u]:offs[u+1]]
		du := int64(len(row))
		for _, vi := range row {
			v := int(vi)
			if v <= u {
				continue
			}
			dv := int64(offs[v+1] - offs[v])
			s.jk += du * dv
			s.sum += du + dv
			s.sumSq += du*du + dv*dv
		}
	}
	return s.assortativity(int64(g.m))
}

// degreeSums are the three sums over edges that the assortativity
// coefficient closes from, kept as integers so that every way of reaching
// them (a pass over the edges, or Subgraphs' identities) yields the same
// bits.
type degreeSums struct {
	jk    int64 // Σ d_u·d_v
	sum   int64 // Σ (d_u + d_v)
	sumSq int64 // Σ (d_u² + d_v²)
}

// assortativity closes the sums of a graph with m edges into Newman's r,
// with each edge taken in both directions (the standard symmetric form):
//
//	r = [M⁻¹ Σ j·k − (M⁻¹ Σ (j+k)/2)²] / [M⁻¹ Σ (j²+k²)/2 − (M⁻¹ Σ (j+k)/2)²]
func (s degreeSums) assortativity(m int64) (float64, bool) {
	if m == 0 {
		return 0, false
	}
	mf := float64(m)
	mean := float64(s.sum) / 2 / mf
	num := float64(s.jk)/mf - mean*mean
	den := float64(s.sumSq)/2/mf - mean*mean
	if den <= 0 || math.IsNaN(den) {
		return 0, false
	}
	return num / den, true
}
