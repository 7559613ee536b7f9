package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDegreeEntropyKnown(t *testing.T) {
	// Regular graphs have zero degree entropy.
	if h := complete(5).DegreeEntropy(); h != 0 {
		t.Errorf("K5 degree entropy = %v, want 0", h)
	}
	if h := edgeless(4).DegreeEntropy(); h != 0 {
		t.Errorf("edgeless entropy = %v, want 0", h)
	}
	if h := edgeless(0).DegreeEntropy(); h != 0 {
		t.Errorf("empty graph entropy = %v", h)
	}
	// Path on 4 vertices: degrees 1,2,2,1 → two equiprobable values → 1 bit.
	if h := path(4).DegreeEntropy(); !almost(h, 1) {
		t.Errorf("P4 degree entropy = %v, want 1", h)
	}
	// Star on 5: degrees {4:1, 1:4} → H = -(0.2 log 0.2 + 0.8 log 0.8).
	g := FromEdgesUnchecked(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	want := -(0.2*math.Log2(0.2) + 0.8*math.Log2(0.8))
	if h := g.DegreeEntropy(); !almost(h, want) {
		t.Errorf("star entropy = %v, want %v", h, want)
	}
}

func TestTransitivityKnown(t *testing.T) {
	if tr := complete(5).Transitivity(); !almost(tr, 1) {
		t.Errorf("K5 transitivity = %v, want 1", tr)
	}
	if tr := path(5).Transitivity(); tr != 0 {
		t.Errorf("path transitivity = %v, want 0", tr)
	}
	if tr := edgeless(3).Transitivity(); tr != 0 {
		t.Errorf("edgeless transitivity = %v, want 0", tr)
	}
	// Paw: triangle a,b,c + pendant d on a.
	// Triangles = 1 (×3 = 3); wedges: deg 3,2,2,1 → 3+1+1+0 = 5.
	g := FromEdgesUnchecked(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	if tr := g.Transitivity(); !almost(tr, 3.0/5) {
		t.Errorf("paw transitivity = %v, want 0.6", tr)
	}
}

func TestTransitivityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(25, rng.Float64(), rng)
		tr := g.Transitivity()
		return tr >= 0 && tr <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransitivityMatchesMotifRatio(t *testing.T) {
	// Transitivity must equal 3·M31 / (3·M31 + M32) — a cross-check
	// against the independent motif-count path.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(20, 0.3, rng)
		// Count triangles and induced wedges directly.
		var tri, wedge int
		for i := 0; i < g.N(); i++ {
			for j := i + 1; j < g.N(); j++ {
				for k := j + 1; k < g.N(); k++ {
					e := 0
					if g.HasEdge(i, j) {
						e++
					}
					if g.HasEdge(i, k) {
						e++
					}
					if g.HasEdge(j, k) {
						e++
					}
					switch e {
					case 3:
						tri++
					case 2:
						wedge++
					}
				}
			}
		}
		want := 0.0
		if 3*tri+wedge > 0 {
			want = float64(3*tri) / float64(3*tri+wedge)
		}
		return math.Abs(g.Transitivity()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
