package graph

import "math"

// The features in this file go beyond the paper's evaluated set; its
// conclusion (§6) names degree-distribution entropy and further structural
// metrics as future work for improving MVG accuracy. They are exposed to
// the pipeline behind the Extended feature option.

// DegreeEntropy returns the Shannon entropy (in bits) of the degree
// distribution — a scale-free-ness indicator the VG literature associates
// with fractality. O(|V|) time.
//
// Counts are accumulated in a degree-indexed array and summed in ascending
// degree order, so the floating-point result is bit-for-bit reproducible
// (a map here would randomize summation order and flip the last ulp
// between runs, breaking the pipeline's determinism guarantee).
func (g *Graph) DegreeEntropy() float64 {
	return g.DegreeEntropyScratch(&CoreScratch{})
}

// DegreeEntropyScratch is DegreeEntropy computed in s's reusable buffers
// (the degree histogram reuses the same storage as the core-decomposition
// bucket array, so one CoreScratch serves both per-graph statistics).
func (g *Graph) DegreeEntropyScratch(s *CoreScratch) float64 {
	s.deg = g.DegreesInto(s.deg)
	return s.degreeEntropy()
}

// DegreeEntropyScratch returns the degree entropy of the live window,
// equal to Graph.DegreeEntropyScratch of its ToCSR snapshot.
func (r *RingGraph) DegreeEntropyScratch(s *CoreScratch) float64 {
	s.deg = r.DegreesInto(s.deg)
	return s.degreeEntropy()
}

// degreeEntropy is the entropy of the degrees in s.deg, summed over their
// histogram in ascending degree order.
func (s *CoreScratch) degreeEntropy() float64 {
	n := len(s.deg)
	h := 0.0
	for _, c := range s.histogram() {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// Transitivity returns the global clustering coefficient
// 3·triangles / wedges (0 when the graph has no wedges). It measures how
// often visibility neighbourhoods close into triangles, complementing the
// motif probability distribution with a single scale-free summary.
// O(Σ_v d_v · d̄) time via merge-scan intersection of contiguous CSR rows,
// visiting each edge once through the forward ranges.
func (g *Graph) Transitivity() float64 {
	offs, nbrs := g.offsets, g.neighbors
	fwd := g.forward
	var wedges, triangles3 int64 // triangles3 = 3 × #triangles = Σ_e tri_e
	for u := 0; u < g.N(); u++ {
		ru := nbrs[offs[u]:offs[u+1]]
		du := int64(len(ru))
		wedges += du * (du - 1) / 2
		for p := fwd[u]; p < offs[u+1]; p++ {
			v := nbrs[p]
			triangles3 += int64(sortedIntersectionSize(ru, nbrs[offs[v]:offs[v+1]]))
		}
	}
	if wedges == 0 {
		return 0
	}
	return float64(triangles3) / float64(wedges)
}

func sortedIntersectionSize(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
