package graph

import (
	"math"
	"testing"
)

func TestDegreeEntropyKnown(t *testing.T) {
	var s CoreScratch
	entropy := func(g *Graph) float64 { return g.DegreeEntropyScratch(&s) }
	// Regular graphs have zero degree entropy.
	if h := entropy(complete(5)); h != 0 {
		t.Errorf("K5 degree entropy = %v, want 0", h)
	}
	if h := entropy(edgeless(4)); h != 0 {
		t.Errorf("edgeless entropy = %v, want 0", h)
	}
	if h := entropy(edgeless(0)); h != 0 {
		t.Errorf("empty graph entropy = %v", h)
	}
	// Path on 4 vertices: degrees 1,2,2,1 → two equiprobable values → 1 bit.
	if h := entropy(path(4)); !almost(h, 1) {
		t.Errorf("P4 degree entropy = %v, want 1", h)
	}
	// Star on 5: degrees {4:1, 1:4} → H = -(0.2 log 0.2 + 0.8 log 0.8).
	g := FromEdgesUnchecked(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	want := -(0.2*math.Log2(0.2) + 0.8*math.Log2(0.8))
	if h := entropy(g); !almost(h, want) {
		t.Errorf("star entropy = %v, want %v", h, want)
	}
}
