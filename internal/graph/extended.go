package graph

import "math"

// The features in this file go beyond the paper's evaluated set; its
// conclusion (§6) names degree-distribution entropy and further structural
// metrics as future work for improving MVG accuracy. They are exposed to
// the pipeline behind the Extended feature option.

// DegreeEntropyScratch returns the Shannon entropy (in bits) of the
// degree distribution — a scale-free-ness indicator the VG literature
// associates with fractality — in O(|V|) time and s's reusable buffers
// (the degree histogram reuses the storage of the core decomposition's
// bucket array, so one CoreScratch serves both per-graph statistics).
//
// Counts are accumulated in a degree-indexed array and summed in ascending
// degree order, so the floating-point result is bit-for-bit reproducible
// (a map here would randomize summation order and flip the last ulp
// between runs, breaking the pipeline's determinism guarantee).
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
