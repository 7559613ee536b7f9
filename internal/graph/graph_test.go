package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// path builds a path graph 0-1-2-...-n-1.
func path(n int) *Graph {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return FromEdgesUnchecked(n, edges)
}

// complete builds K_n.
func complete(n int) *Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return FromEdgesUnchecked(n, edges)
}

// randomGraph builds a G(n,p) graph.
func randomGraph(n int, p float64, rng *rand.Rand) *Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return FromEdgesUnchecked(n, edges)
}

// edgeless builds n isolated vertices.
func edgeless(n int) *Graph { return FromEdgesUnchecked(n, nil) }

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := FromEdgesUnchecked(4, [][2]int{{0, 2}, {0, 1}, {2, 3}})
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("edge (0,2) missing")
	}
	if g.HasEdge(1, 3) {
		t.Error("edge (1,3) should not exist")
	}
	if g.HasEdge(0, 0) || g.HasEdge(0, 9) {
		t.Error("degenerate HasEdge should be false")
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2] sorted", nb)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	want := [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 3}}
	g := FromEdgesUnchecked(4, want)
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("Edges() len = %d, want %d", len(got), len(want))
	}
	seen := map[[2]int]bool{}
	for _, e := range got {
		seen[e] = true
	}
	for _, e := range want {
		if !seen[e] {
			t.Errorf("edge %v missing from Edges()", e)
		}
	}
}

func TestDensity(t *testing.T) {
	if d := complete(5).Density(); !almost(d, 1) {
		t.Errorf("K5 density = %v, want 1", d)
	}
	if d := edgeless(5).Density(); d != 0 {
		t.Errorf("empty graph density = %v", d)
	}
	if d := edgeless(1).Density(); d != 0 {
		t.Errorf("single vertex density = %v", d)
	}
	if d := path(5).Density(); !almost(d, 2.0*4/(5*4)) {
		t.Errorf("P5 density = %v", d)
	}
}

func TestDegreeStats(t *testing.T) {
	g := path(4) // degrees 1,2,2,1
	maxD, minD, mean := g.DegreeStats()
	if maxD != 2 || minD != 1 || !almost(mean, 1.5) {
		t.Errorf("DegreeStats = %d,%d,%v", maxD, minD, mean)
	}
	maxD, minD, mean = edgeless(0).DegreeStats()
	if maxD != 0 || minD != 0 || mean != 0 {
		t.Error("empty graph degree stats should be zero")
	}
	if a := testing.AllocsPerRun(16, func() { g.DegreeStats() }); a != 0 {
		t.Errorf("DegreeStats allocates %v times, want 0", a)
	}
}

func TestIsConnected(t *testing.T) {
	if !path(6).IsConnected() {
		t.Error("path should be connected")
	}
	g := FromEdgesUnchecked(4, [][2]int{{0, 1}, {2, 3}})
	if g.IsConnected() {
		t.Error("two components should not be connected")
	}
	if !edgeless(1).IsConnected() || !edgeless(0).IsConnected() {
		t.Error("trivial graphs count as connected")
	}
}

func TestCoreNumbersKnown(t *testing.T) {
	// K4 plus a pendant: core numbers 3,3,3,3,1.
	h := FromEdgesUnchecked(5, append(complete(4).Edges(), [2]int{3, 4}))
	cores := h.CoreNumbers()
	want := []int{3, 3, 3, 3, 1}
	for v, c := range cores {
		if c != want[v] {
			t.Errorf("core[%d] = %d, want %d", v, c, want[v])
		}
	}
	if h.Degeneracy() != 3 {
		t.Errorf("degeneracy = %d, want 3", h.Degeneracy())
	}
	k3 := h.KCore(3)
	if len(k3) != 4 {
		t.Errorf("3-core size = %d, want 4", len(k3))
	}
}

func TestCoreNumbersPathAndCycle(t *testing.T) {
	if d := path(10).Degeneracy(); d != 1 {
		t.Errorf("path degeneracy = %d, want 1", d)
	}
	// Cycle: every vertex has core number 2.
	g := FromEdgesUnchecked(6, append(path(6).Edges(), [2]int{0, 5}))
	for v, c := range g.CoreNumbers() {
		if c != 2 {
			t.Errorf("cycle core[%d] = %d, want 2", v, c)
		}
	}
	if edgeless(3).Degeneracy() != 0 {
		t.Error("edgeless graph degeneracy should be 0")
	}
}

// coreBrute computes core numbers by iterative peeling (simple but slow).
func coreBrute(g *Graph) []int {
	n := g.N()
	deg := g.Degrees()
	removed := make([]bool, n)
	core := make([]int, n)
	for k := 0; ; k++ {
		// Remove everything with degree <= k repeatedly.
		changed := true
		any := false
		for v := 0; v < n; v++ {
			if !removed[v] {
				any = true
			}
		}
		if !any {
			break
		}
		for changed {
			changed = false
			for v := 0; v < n; v++ {
				if !removed[v] && deg[v] <= k {
					removed[v] = true
					core[v] = k
					changed = true
					for _, w := range g.Neighbors(v) {
						if !removed[w] {
							deg[w]--
						}
					}
				}
			}
		}
	}
	return core
}

func TestCoreNumbersAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(20, 0.25, rng)
		got := g.CoreNumbers()
		want := coreBrute(g)
		for v := range got {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKCoreInvariant(t *testing.T) {
	// Every vertex of the k-core has >= k neighbours inside the k-core.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(30, 0.2, rng)
		k := g.Degeneracy()
		members := map[int]bool{}
		for _, v := range g.KCore(k) {
			members[v] = true
		}
		if len(members) == 0 && g.M() > 0 {
			return false
		}
		for v := range members {
			inside := 0
			for _, w := range g.Neighbors(v) {
				if members[int(w)] {
					inside++
				}
			}
			if inside < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// assortBrute computes the Pearson correlation of endpoint degrees over the
// directed edge list (each undirected edge contributes both orientations).
func assortBrute(g *Graph) (float64, bool) {
	var xs, ys []float64
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			xs = append(xs, float64(g.Degree(u)))
			ys = append(ys, float64(g.Degree(int(w))))
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	mx, my := meanOf(xs), meanOf(ys)
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx <= 0 || vy <= 0 {
		return 0, false
	}
	return cov / math.Sqrt(vx*vy), true
}

func meanOf(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func TestAssortativityKnown(t *testing.T) {
	// A star graph is maximally disassortative: r = -1.
	g := FromEdgesUnchecked(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	r, ok := g.Assortativity()
	if !ok || !almost(r, -1) {
		t.Errorf("star assortativity = %v ok=%v, want -1", r, ok)
	}
	// Regular graphs have undefined assortativity (zero degree variance).
	if _, ok := complete(5).Assortativity(); ok {
		t.Error("K5 assortativity should be undefined")
	}
	if _, ok := edgeless(4).Assortativity(); ok {
		t.Error("edgeless assortativity should be undefined")
	}
}

func TestAssortativityAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(25, 0.2, rng)
		got, ok1 := g.Assortativity()
		want, ok2 := assortBrute(g)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
