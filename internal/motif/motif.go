// Package motif counts induced graphlets ("motifs") of size two to four in
// undirected graphs — the 11 motifs of Table 1 in the paper, both connected
// and disconnected — and converts them into the normalized motif
// probability distributions (MPDs) the MVG feature extractor consumes.
//
// It plays the role PGD (Ahmed et al., ICDM 2015) plays in the paper: exact
// counts from a few direct enumerations combined with combinatorial
// identities, rather than explicit subgraph enumeration. As in PGD,
// triangles and 4-cliques are found through a marked neighbour table: the
// forward neighbours of each vertex are marked with their arc positions, so
// every candidate is a single array lookup instead of a sorted-list merge.
// Non-induced 4-cycles are counted once each, at their highest-numbered
// vertex, by the Chiba–Nishizeki wedge orientation walked in time order.
// Vertex ids stay in time order throughout, which keeps the rows of
// visibility graphs local in memory.
package motif

import (
	"mvg/internal/buf"
	"mvg/internal/graph"
)

// Counts holds induced occurrence counts for every motif of size ≤ 4,
// using the paper's Table 1 naming. Size-k counts partition the C(n,k)
// vertex subsets of the host graph.
type Counts struct {
	// Size 2.
	M21 int64 // 2-edge
	M22 int64 // 2-node-independent

	// Size 3, connected.
	M31 int64 // 3-triangle
	M32 int64 // 3-path (wedge)
	// Size 3, disconnected.
	M33 int64 // 3-node-1-edge
	M34 int64 // 3-node-independent

	// Size 4, connected.
	M41 int64 // 4-clique
	M42 int64 // 4-chordal-cycle (diamond)
	M43 int64 // 4-tailed-triangle (paw)
	M44 int64 // 4-cycle
	M45 int64 // 4-star (claw)
	M46 int64 // 4-path
	// Size 4, disconnected.
	M47  int64 // 4-node-triangle (triangle + isolate)
	M48  int64 // 4-node-star (wedge + isolate)
	M49  int64 // 4-node-2-edges (two independent edges)
	M410 int64 // 4-node-1-edge (edge + two isolates)
	M411 int64 // 4-node-independent
}

// Names lists the motif labels in the canonical order used by Vector and
// the probability groups.
var Names = []string{
	"M21", "M22",
	"M31", "M32", "M33", "M34",
	"M41", "M42", "M43", "M44", "M45", "M46",
	"M47", "M48", "M49", "M410", "M411",
}

// array returns the 17 counts in canonical Names order — the single
// definition of that order, shared by Vector and AppendProbabilities.
func (c Counts) array() [17]int64 {
	return [17]int64{
		c.M21, c.M22,
		c.M31, c.M32, c.M33, c.M34,
		c.M41, c.M42, c.M43, c.M44, c.M45, c.M46,
		c.M47, c.M48, c.M49, c.M410, c.M411,
	}
}

// Vector returns the 17 counts in canonical Names order.
func (c Counts) Vector() []int64 {
	v := c.array()
	return v[:]
}

// Groups defines the paper's five normalization groups over Names indices:
// {M21,M22}, {M31,M32}, {M33,M34}, {M41..M46}, {M47..M411}. MPDs are
// normalized within each size/connectivity group (Section 3.1).
var Groups = [][]int{
	{0, 1},
	{2, 3},
	{4, 5},
	{6, 7, 8, 9, 10, 11},
	{12, 13, 14, 15, 16},
}

// Probabilities converts counts into the grouped motif probability
// distribution: each group of Vector entries is normalized to sum to one.
// Groups with a zero total yield zero probabilities.
func (c Counts) Probabilities() []float64 {
	return c.AppendProbabilities(make([]float64, 0, len(Names)))
}

// AppendProbabilities appends the grouped motif probability distribution to
// dst and returns it — the allocation-free form of Probabilities used by
// the feature-extraction hot loop.
func (c Counts) AppendProbabilities(dst []float64) []float64 {
	v := c.array()
	base := len(dst)
	for range v {
		dst = append(dst, 0)
	}
	out := dst[base:]
	for _, grp := range Groups {
		var total int64
		for _, i := range grp {
			total += v[i]
		}
		if total == 0 {
			continue
		}
		for _, i := range grp {
			out[i] = float64(v[i]) / float64(total)
		}
	}
	return dst
}

func choose2(n int64) int64 {
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

func choose3(n int64) int64 {
	if n < 3 {
		return 0
	}
	return n * (n - 1) * (n - 2) / 6
}

func choose4(n int64) int64 {
	if n < 4 {
		return 0
	}
	return n * (n - 1) * (n - 2) * (n - 3) / 24
}

// Counter computes motif counts with reusable scratch arrays (degree
// sequence, per-arc triangle counts, triangle incidence sums, a vertex
// mark table and a common-neighbour list), so per-graph counting performs
// no allocations after warm-up. The zero value is ready for use; a Counter
// must not be shared between goroutines.
type Counter struct {
	deg        []int
	vertTriSum []int64
	arcTri     []int32
	// mark is the per-vertex table of both enumeration passes: arc
	// marks in the triangle pass, co-degrees in the 4-cycle pass. It only
	// grows, and every pass leaves it all zero.
	mark   []int32
	common []int32
}

// Count computes exact induced counts of all 11 motifs of size ≤ 4 of g.
// It is the convenience form of Counter.Count with throwaway scratch.
//
// Strategy: one marker-based triangle enumeration over the forward ranges
// yields per-edge triangle counts and direct 4-clique counts; a wedge pass
// oriented to each cycle's highest vertex yields the non-induced 4-cycles;
// degree aggregates give non-induced stars, paths and paws. Induced counts
// then follow from the standard inclusion–exclusion identities between
// non-induced and induced subgraph counts, and the disconnected motifs
// from complement identities against C(n,3)/C(n,4) totals.
func Count(g *graph.Graph) Counts {
	var ctr Counter
	return ctr.Count(g)
}

// Count computes the motif counts of g in the counter's reusable buffers:
// FromSubgraphs of Counter.Subgraphs.
func (ctr *Counter) Count(g *graph.Graph) Counts {
	return FromSubgraphs(ctr.Subgraphs(g))
}

// Subgraphs enumerates the subgraph totals of g that FromSubgraphs closes
// into motif counts, in the counter's reusable buffers.
func (ctr *Counter) Subgraphs(g *graph.Graph) graph.Subgraphs {
	s := graph.Subgraphs{N: int64(g.N()), M: int64(g.M())}
	if g.N() == 0 {
		return s
	}

	ctr.deg = g.DegreesInto(ctr.deg)
	deg := ctr.deg

	// Wedges: Σ_v C(d_v, 2).
	var wedges int64
	for _, d := range deg {
		wedges += choose2(int64(d))
	}

	// Triangle pass over the CSR forward ranges, PGD-style. For each u, the
	// forward neighbours x > u are marked with their arc position + 1. For
	// each forward neighbour v, a scan of v's forward row up to u's largest
	// forward neighbour finds every triangle u < v < w as a positive mark
	// on w, so each triangle is enumerated once and its three arc
	// positions are known without a search; per-edge triangle counts tri_e
	// accumulate into a flat arc-indexed array. The tips w of (u, v) are
	// collected in common and their marks negated while the list is live:
	// a 4-clique u < v < w < x is then an x in w's forward row with a
	// negative mark, counted from the sign bit without a branch.
	offs, nbrs := g.CSR() // hoisted flat rows: no per-access method call
	fwd := g.Forward()
	ctr.arcTri = buf.GrowZero(ctr.arcTri, len(nbrs))
	arcTri := ctr.arcTri // tri_e at the forward-arc position of each edge
	if len(ctr.mark) < g.N() {
		ctr.mark = make([]int32, g.N())
	}
	mark := ctr.mark
	common := ctr.common
	var k4 int64
	for u := 0; u < g.N(); u++ {
		lo, end := fwd[u], offs[u+1]
		if end-lo < 2 {
			continue // a triangle needs two forward neighbours of u
		}
		fu := nbrs[lo:end]
		for i, x := range fu {
			mark[x] = lo + int32(i) + 1
		}
		maxU := fu[len(fu)-1]
		// The largest forward neighbour has no partner above it in fu.
		for i, v := range fu[:len(fu)-1] {
			common = common[:0]
			pv := fwd[v]
			for j, w := range nbrs[pv:offs[v+1]] {
				if w > maxU {
					break
				}
				if m := mark[w]; m > 0 { // triangle (u, v, w)
					arcTri[m-1]++
					arcTri[pv+int32(j)]++
					mark[w] = -m
					common = append(common, w)
				}
			}
			if len(common) == 0 {
				continue
			}
			arcTri[lo+int32(i)] += int32(len(common))
			maxT := common[len(common)-1]
			for _, w := range common[:len(common)-1] {
				for _, x := range nbrs[fwd[w]:offs[w+1]] {
					if x > maxT {
						break
					}
					k4 += int64(uint32(mark[x]) >> 31)
				}
			}
			for _, w := range common {
				mark[w] = -mark[w]
			}
		}
		for _, x := range fu {
			mark[x] = 0
		}
	}
	ctr.common = common

	// Per-edge aggregation: Σ tri_e, Σ C(tri_e,2), per-vertex triangle
	// incidence sums and non-induced P4s, all from the arc-indexed counts.
	var (
		triTotal3   int64 // Σ_e tri_e = 3 × #triangles
		triPairsSum int64 // Σ_e C(tri_e, 2)
		p4Non       int64 // Σ_e [(d_u-1)(d_v-1) - tri_e]
	)
	ctr.vertTriSum = buf.GrowZero(ctr.vertTriSum, g.N())
	vertTriSum := ctr.vertTriSum // Σ over incident edges of tri_e (= 2·tri_v)
	for u := 0; u < g.N(); u++ {
		for p := fwd[u]; p < offs[u+1]; p++ {
			v := nbrs[p]
			te := int64(arcTri[p])
			triTotal3 += te
			triPairsSum += choose2(te)
			vertTriSum[u] += te
			vertTriSum[v] += te
			p4Non += int64(deg[u]-1)*int64(deg[v]-1) - te
		}
	}
	tri := triTotal3 / 3

	// Non-induced paws: Σ_triangles (d_u + d_v + d_w - 6)
	//                 = Σ_v tri_v·d_v - 6·tri, with tri_v = vertTriSum[v]/2.
	var pawNon int64
	for v, d := range deg {
		pawNon += vertTriSum[v] / 2 * int64(d)
	}
	pawNon -= 6 * tri

	// Non-induced claws: Σ_v C(d_v, 3).
	var clawNon int64
	for _, d := range deg {
		clawNon += choose3(int64(d))
	}

	// Non-induced 4-cycles, each counted once at its highest vertex a
	// (Chiba–Nishizeki): the cycles topped by a with opposite vertex c < a
	// are the pairs of a's lower neighbours adjacent to c, C(k,2) for
	// k = codeg[c]. The wedges a–v–c with v < a and c < a are a prefix of
	// row v, and adding each prior count before the increment sums the
	// C(k,2) with no per-step branch. Only codeg[lo:a] is ever touched.
	codeg := mark // all zero again after the triangle pass
	var c4Non int64
	for a := int32(1); a < int32(g.N()); a++ {
		back := nbrs[offs[a]:fwd[a]]
		if len(back) < 2 {
			continue // a cycle needs two lower neighbours of a
		}
		lo := a
		for _, v := range back {
			row := nbrs[offs[v]:offs[v+1]]
			lo = min(lo, row[0])
			for _, c := range row {
				if c >= a {
					break
				}
				c4Non += int64(codeg[c])
				codeg[c]++
			}
		}
		clear(codeg[lo:a])
	}

	s.Wedges = wedges
	s.Claws = clawNon
	s.Triangles = tri
	s.Diamonds = triPairsSum
	s.Cliques4 = k4
	s.Paths4 = p4Non
	s.Paws = pawNon
	s.Cycles4 = c4Non
	return s
}

// FromSubgraphs closes subgraph totals into the induced counts of all 11
// motifs of size ≤ 4: induced counts follow from the standard
// inclusion–exclusion identities between non-induced and induced subgraph
// counts, and the disconnected motifs from complement identities against
// the C(n,3)/C(n,4) totals. It is the one copy of those identities, shared
// by Counter.Count and the ring graphs of mvg.Stream.
func FromSubgraphs(s graph.Subgraphs) Counts {
	n64, m64 := s.N, s.M
	tri, k4, wedges := s.Triangles, s.Cliques4, s.Wedges
	var c Counts

	// ---- Size 2 ----
	c.M21 = m64
	c.M22 = choose2(n64) - m64

	// ---- Size 3 induced ----
	c.M31 = tri
	c.M32 = wedges - 3*tri
	c.M33 = m64*(n64-2) - 3*c.M31 - 2*c.M32
	c.M34 = choose3(n64) - c.M31 - c.M32 - c.M33

	// ---- Size 4 connected induced ----
	diamond := s.Diamonds - 6*k4
	cycle4 := s.Cycles4 - diamond - 3*k4
	paw := s.Paws - 4*diamond - 12*k4
	claw := s.Claws - paw - 2*diamond - 4*k4
	path4 := s.Paths4 - 2*paw - 4*cycle4 - 6*diamond - 12*k4

	c.M41 = k4
	c.M42 = diamond
	c.M43 = paw
	c.M44 = cycle4
	c.M45 = claw
	c.M46 = path4

	// ---- Size 4 disconnected induced ----
	// (triangle, external vertex) pairs, weighted by triangles per 4-set.
	c.M47 = tri*(n64-3) - paw - 2*diamond - 4*k4
	// (induced wedge, external vertex) pairs.
	c.M48 = c.M32*(n64-3) - 3*claw - 2*path4 - 2*paw - 4*cycle4 - 2*diamond
	// Vertex-disjoint edge pairs.
	c.M49 = choose2(m64) - wedges - path4 - 2*cycle4 - paw - 2*diamond - 3*k4
	// (edge, two external vertices): Σ_{4-sets} induced edge count.
	c.M410 = m64*choose2(n64-2) -
		6*k4 - 5*diamond - 4*(cycle4+paw) -
		3*(claw+path4+c.M47) - 2*(c.M48+c.M49)
	c.M411 = choose4(n64) - c.M41 - c.M42 - c.M43 - c.M44 - c.M45 - c.M46 -
		c.M47 - c.M48 - c.M49 - c.M410

	return c
}
