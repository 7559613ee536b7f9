package motif

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mvg/internal/graph"
	"mvg/internal/visibility"
)

func randomGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graph.FromEdgesUnchecked(n, edges)
}

func complete(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return graph.FromEdgesUnchecked(n, edges)
}

// fromEdges builds a graph on n vertices from a hand-written edge list.
func fromEdges(n int, list ...[2]int) *graph.Graph {
	return graph.FromEdgesUnchecked(n, list)
}

func TestCountEmptyAndTiny(t *testing.T) {
	c := Count(fromEdges(0))
	if c != (Counts{}) {
		t.Errorf("empty graph counts = %+v", c)
	}
	c = Count(fromEdges(1))
	if c != (Counts{}) {
		t.Errorf("single vertex counts = %+v", c)
	}
	c = Count(fromEdges(2))
	if c.M22 != 1 || c.M21 != 0 {
		t.Errorf("two isolated vertices: %+v", c)
	}
}

func TestCountTriangle(t *testing.T) {
	c := Count(complete(3))
	if c.M21 != 3 || c.M22 != 0 || c.M31 != 1 || c.M32 != 0 {
		t.Errorf("K3 counts wrong: %+v", c)
	}
}

func TestCountK4(t *testing.T) {
	c := Count(complete(4))
	if c.M41 != 1 {
		t.Errorf("K4 clique count = %d, want 1", c.M41)
	}
	if c.M31 != 4 { // C(4,3) triangles
		t.Errorf("K4 triangle count = %d, want 4", c.M31)
	}
	for _, v := range []int64{c.M42, c.M43, c.M44, c.M45, c.M46, c.M47, c.M48, c.M49, c.M410, c.M411} {
		if v != 0 {
			t.Errorf("K4 should have only cliques: %+v", c)
		}
	}
}

func TestCountK5(t *testing.T) {
	c := Count(complete(5))
	if c.M41 != 5 { // C(5,4)
		t.Errorf("K5 4-clique count = %d, want 5", c.M41)
	}
	if c.M31 != 10 {
		t.Errorf("K5 triangle count = %d, want 10", c.M31)
	}
}

func TestCountStar(t *testing.T) {
	// Star with center 0 and 4 leaves: claws = C(4,3) = 4.
	g := fromEdges(5, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}, [2]int{0, 4})
	c := Count(g)
	if c.M45 != 4 {
		t.Errorf("star claw count = %d, want 4", c.M45)
	}
	if c.M31 != 0 || c.M41 != 0 || c.M44 != 0 {
		t.Errorf("star has unexpected motifs: %+v", c)
	}
	// Wedges: C(4,2) = 6.
	if c.M32 != 6 {
		t.Errorf("star wedge count = %d, want 6", c.M32)
	}
}

func TestCountCycle4(t *testing.T) {
	g := fromEdges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})
	c := Count(g)
	if c.M44 != 1 {
		t.Errorf("C4 cycle count = %d, want 1", c.M44)
	}
	if c.M41 != 0 || c.M42 != 0 || c.M43 != 0 || c.M45 != 0 || c.M46 != 0 {
		t.Errorf("C4 unexpected connected motifs: %+v", c)
	}
}

func TestCountDiamondPawPath(t *testing.T) {
	// Diamond: K4 minus one edge.
	d := fromEdges(4, [2]int{0, 2}, [2]int{0, 3}, [2]int{1, 2}, [2]int{1, 3}, [2]int{2, 3})
	c := Count(d)
	if c.M42 != 1 {
		t.Errorf("diamond count = %d, want 1 (%+v)", c.M42, c)
	}

	// Paw: triangle 0-1-2 plus pendant 3 on 0.
	p := fromEdges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}, [2]int{0, 3})
	c = Count(p)
	if c.M43 != 1 {
		t.Errorf("paw count = %d, want 1 (%+v)", c.M43, c)
	}

	// Path on 4 vertices.
	q := fromEdges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	c = Count(q)
	if c.M46 != 1 {
		t.Errorf("P4 count = %d, want 1 (%+v)", c.M46, c)
	}
}

func TestCountDisconnectedMotifs(t *testing.T) {
	// Triangle plus isolated vertex.
	g := fromEdges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})
	c := Count(g)
	if c.M47 != 1 {
		t.Errorf("triangle+isolate = %d, want 1 (%+v)", c.M47, c)
	}

	// Two independent edges.
	h := fromEdges(4, [2]int{0, 1}, [2]int{2, 3})
	c = Count(h)
	if c.M49 != 1 {
		t.Errorf("2K2 = %d, want 1 (%+v)", c.M49, c)
	}

	// Wedge plus isolate.
	w := fromEdges(4, [2]int{0, 1}, [2]int{1, 2})
	c = Count(w)
	if c.M48 != 1 {
		t.Errorf("wedge+isolate = %d, want 1 (%+v)", c.M48, c)
	}

	// Single edge and two isolates.
	e := fromEdges(4, [2]int{0, 1})
	c = Count(e)
	if c.M410 != 1 {
		t.Errorf("edge+2 isolates = %d, want 1 (%+v)", c.M410, c)
	}

	// Empty on 4.
	c = Count(fromEdges(4))
	if c.M411 != 1 {
		t.Errorf("empty 4-set = %d, want 1 (%+v)", c.M411, c)
	}
}

func TestCountMatchesBruteRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		p := 0.05 + rng.Float64()*0.5
		g := randomGraph(n, p, rng)
		return Count(g) == CountBrute(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCountMatchesBruteVisibilityGraphs(t *testing.T) {
	// Visibility graphs are the actual production inputs; verify on those.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(24)
		series := make([]float64, n)
		for i := range series {
			series[i] = rng.NormFloat64()
		}
		vg, err := visibility.VG(series)
		if err != nil {
			return false
		}
		hvg, err := visibility.HVG(series)
		if err != nil {
			return false
		}
		return Count(vg) == CountBrute(vg) && Count(hvg) == CountBrute(hvg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCountPartitionProperty(t *testing.T) {
	// Size-k counts must partition C(n,k) subsets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := randomGraph(n, rng.Float64()*0.6, rng)
		c := Count(g)
		n64 := int64(n)
		if c.M21+c.M22 != choose2(n64) {
			return false
		}
		if c.M31+c.M32+c.M33+c.M34 != choose3(n64) {
			return false
		}
		sum4 := c.M41 + c.M42 + c.M43 + c.M44 + c.M45 + c.M46 +
			c.M47 + c.M48 + c.M49 + c.M410 + c.M411
		return sum4 == choose4(n64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCountNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := randomGraph(n, rng.Float64(), rng)
		for _, v := range Count(g).Vector() {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestProbabilitiesGroupsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(25, 0.3, rng)
	p := Count(g).Probabilities()
	for gi, grp := range Groups {
		sum := 0.0
		for _, i := range grp {
			if p[i] < 0 || p[i] > 1 {
				t.Errorf("probability out of range: p[%d]=%v", i, p[i])
			}
			sum += p[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("group %d sums to %v", gi, sum)
		}
	}
}

func TestProbabilitiesZeroGroups(t *testing.T) {
	// K3 has no 4-vertex subsets at all: groups 4 and 5 must be all zero.
	p := Count(complete(3)).Probabilities()
	for _, i := range append(Groups[3], Groups[4]...) {
		if p[i] != 0 {
			t.Errorf("expected zero probability for index %d, got %v", i, p[i])
		}
	}
}

func TestNamesAndVectorAligned(t *testing.T) {
	if len(Names) != 17 {
		t.Fatalf("Names has %d entries", len(Names))
	}
	c := Counts{M21: 1, M22: 2, M31: 3, M32: 4, M33: 5, M34: 6, M41: 7,
		M42: 8, M43: 9, M44: 10, M45: 11, M46: 12, M47: 13, M48: 14,
		M49: 15, M410: 16, M411: 17}
	v := c.Vector()
	for i, x := range v {
		if x != int64(i+1) {
			t.Errorf("Vector()[%d] = %d, want %d", i, x, i+1)
		}
	}
	// Every index appears in exactly one group.
	seen := map[int]int{}
	for _, grp := range Groups {
		for _, i := range grp {
			seen[i]++
		}
	}
	if len(seen) != 17 {
		t.Errorf("groups cover %d indices, want 17", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d appears %d times in groups", i, c)
		}
	}
}
