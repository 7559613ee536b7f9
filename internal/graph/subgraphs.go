package graph

// Subgraphs holds the counts of subgraphs on at most four vertices, not
// necessarily induced, from which motif.FromSubgraphs derives the induced
// motif counts: every field but N counts the copies of one pattern as a
// set of edges (a triangle contributes three wedges, a 4-clique six
// diamonds). motif.Counter.Subgraphs enumerates them on a built graph; a
// counting RingGraph keeps them current as its window slides.
type Subgraphs struct {
	N int64 // vertices
	M int64 // edges

	Wedges    int64 // 3-vertex paths: Σ_v C(d_v, 2)
	Claws     int64 // 3-leaf stars: Σ_v C(d_v, 3)
	Triangles int64
	Diamonds  int64 // K4 minus an edge: Σ_e C(t_e, 2), t_e the triangles on e
	Cliques4  int64
	Paths4    int64 // 4-vertex paths: Σ_e [(d_u−1)(d_v−1) − t_e]
	Paws      int64 // triangle plus pendant edge: Σ_v t_v·d_v − 6·triangles
	Cycles4   int64
}

// add adds sign × d to every count of s.
func (s *Subgraphs) add(d Subgraphs, sign int64) {
	s.N += sign * d.N
	s.M += sign * d.M
	s.Wedges += sign * d.Wedges
	s.Claws += sign * d.Claws
	s.Triangles += sign * d.Triangles
	s.Diamonds += sign * d.Diamonds
	s.Cliques4 += sign * d.Cliques4
	s.Paths4 += sign * d.Paths4
	s.Paws += sign * d.Paws
	s.Cycles4 += sign * d.Cycles4
}

// Assortativity returns the degree assortativity of the graph s counts,
// bit-identical to Graph.Assortativity on that graph. The three degree
// sums over edges it closes from are integer identities in the counts:
//
//	Σ_e (d_u + d_v)   = Σ_v d_v²           = 2·Wedges + 2·M
//	Σ_e (d_u² + d_v²) = Σ_v d_v³           = 6·Claws + 6·Wedges + 2·M
//	Σ_e d_u·d_v       = Σ_e (d_u−1)(d_v−1) + Σ_e (d_u + d_v) − M
//	                  = Paths4 + 3·Triangles + Σ_e (d_u + d_v) − M
func (s Subgraphs) Assortativity() (float64, bool) {
	sum := 2*s.Wedges + 2*s.M
	return degreeSums{
		jk:    s.Paths4 + 3*s.Triangles + sum - s.M,
		sum:   sum,
		sumSq: 6*s.Claws + 6*s.Wedges + 2*s.M,
	}.assortativity(s.M)
}
