package graph

import (
	"math/rand"
	"testing"
)

// refWindow is a naive sliding-window reference: it keeps the full edge
// list and rebuilds membership from scratch on every mutation.
type refWindow struct {
	start, count int
	edges        map[[2]int]bool
}

func newRefWindow() *refWindow { return &refWindow{edges: map[[2]int]bool{}} }

func (w *refWindow) append(neighbors []int) int {
	id := w.start + w.count
	for _, v := range neighbors {
		w.edges[[2]int{v, id}] = true
	}
	w.count++
	return id
}

func (w *refWindow) evict() {
	for e := range w.edges {
		if e[0] == w.start || e[1] == w.start {
			delete(w.edges, e)
		}
	}
	w.start++
	w.count--
}

func (w *refWindow) graph() *Graph {
	edges := make([][2]int, 0, len(w.edges))
	for e := range w.edges {
		edges = append(edges, [2]int{e[0] - w.start, e[1] - w.start})
	}
	return FromEdgesUnchecked(w.count, edges)
}

func identicalCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("N/M = %d/%d, want %d/%d", got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < got.N(); v++ {
		a, b := got.Neighbors(v), want.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree(%d) = %d, want %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d = %v, want %v", v, a, b)
			}
		}
	}
	offs, neighbors := got.CSR()
	fwd := got.Forward()
	for v := 0; v < got.N(); v++ {
		for p := offs[v]; p < offs[v+1]; p++ {
			if (p < fwd[v]) != (neighbors[p] < int32(v)) {
				t.Fatalf("forward split of vertex %d broken", v)
			}
		}
	}
}

// TestRingGraphAgainstReference drives a RingGraph and the naive reference
// through the same random slide sequence, comparing CSR snapshots.
func TestRingGraphAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const capacity = 16
	r := NewRingGraph(capacity)
	ref := newRefWindow()
	var snap Graph
	for step := 0; step < 4000; step++ {
		if r.count == capacity || (r.count > 0 && rng.Intn(4) == 0) {
			r.Evict()
			ref.evict()
		}
		// Random ascending subset of the live window as backward neighbors.
		var nbrs []int
		for id := r.Start(); id < r.Start()+r.Len(); id++ {
			if rng.Intn(3) == 0 {
				nbrs = append(nbrs, id)
			}
		}
		gotID := r.Append(nbrs)
		if wantID := ref.append(nbrs); gotID != wantID {
			t.Fatalf("step %d: Append id = %d, want %d", step, gotID, wantID)
		}
		if r.Len() != ref.count || r.Start() != ref.start {
			t.Fatalf("step %d: window [%d,+%d), want [%d,+%d)", step, r.Start(), r.Len(), ref.start, ref.count)
		}
		if step%17 == 0 {
			r.ToCSR(&snap)
			identicalCSR(t, &snap, ref.graph())
		}
	}
}

func TestRingGraphEmptyAndReset(t *testing.T) {
	r := NewRingGraph(4)
	var snap Graph
	r.ToCSR(&snap)
	if snap.N() != 0 || snap.M() != 0 {
		t.Fatalf("empty snapshot N/M = %d/%d", snap.N(), snap.M())
	}
	r.Evict() // no-op on empty
	r.Append(nil)
	r.Append([]int{0})
	if r.M() != 1 || r.Len() != 2 {
		t.Fatalf("M=%d Len=%d, want 1/2", r.M(), r.Len())
	}
	r.Reset(4)
	if r.M() != 0 || r.Len() != 0 || r.Start() != 0 {
		t.Fatalf("Reset left M=%d Len=%d Start=%d", r.M(), r.Len(), r.Start())
	}
	r.ToCSR(&snap)
	if snap.N() != 0 {
		t.Fatalf("post-Reset snapshot N = %d", snap.N())
	}
}

func TestRingGraphAppendFullPanics(t *testing.T) {
	r := NewRingGraph(2)
	r.Append(nil)
	r.Append([]int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("Append on a full window did not panic")
		}
	}()
	r.Append(nil)
}

// TestRingGraphSnapshotAllocFree pins the steady-state contract: once the
// ring and snapshot buffers are warm, slides and snapshots allocate
// nothing.
func TestRingGraphSnapshotAllocFree(t *testing.T) {
	r := NewRingGraph(32)
	var snap Graph
	rng := rand.New(rand.NewSource(3))
	slide := func(n int) {
		for i := 0; i < n; i++ {
			if r.Len() == r.Capacity() {
				r.Evict()
			}
			nbrs := make([]int, 0, 4)
			for id := r.Start() + max(0, r.Len()-4); id < r.Start()+r.Len(); id++ {
				if rng.Intn(2) == 0 {
					nbrs = append(nbrs, id)
				}
			}
			r.Append(nbrs)
			r.ToCSR(&snap)
		}
	}
	slide(128) // warm every slot twice
	nbrs := make([]int, 1)
	allocs := testing.AllocsPerRun(64, func() {
		if r.Len() == r.Capacity() {
			r.Evict()
		}
		nbrs[0] = r.Start() + r.Len() - 1
		r.Append(nbrs)
		r.ToCSR(&snap)
	})
	if allocs > 0 {
		t.Fatalf("warm slide+snapshot allocates %.1f/op, want 0", allocs)
	}
}

// TestRingGraphIDWraparound starts a ring just below 2³², where
// the ids its rows hold wrap around, and requires its snapshots and
// subgraph counts to match a ring fed the same window-relative edges from
// id 0.
func TestRingGraphIDWraparound(t *testing.T) {
	high := uint64(1<<32 - 40)
	if uint64(int(high)) != high {
		t.Skip("int cannot hold ids past 2³²")
	}
	const capacity = 16
	wrapped, plain := NewRingGraph(capacity), NewRingGraph(capacity)
	wrapped.start = int(high)
	rng := rand.New(rand.NewSource(11))
	var a, b Graph
	var nbrs, rel []int
	for step := 0; step < 200; step++ {
		if wrapped.Len() == capacity || (wrapped.Len() > 0 && rng.Intn(4) == 0) {
			wrapped.Evict()
			plain.Evict()
		}
		nbrs, rel = nbrs[:0], rel[:0]
		for k := 0; k < wrapped.Len(); k++ {
			if rng.Intn(3) == 0 {
				nbrs = append(nbrs, wrapped.Start()+k)
				rel = append(rel, plain.Start()+k)
			}
		}
		wrapped.Append(nbrs)
		plain.Append(rel)
		wrapped.ToCSR(&a)
		plain.ToCSR(&b)
		identicalCSR(t, &a, &b)
		if ws, ps := wrapped.Subgraphs(), plain.Subgraphs(); ws != ps {
			t.Fatalf("step %d: wrapped ring counts %+v, want %+v", step, ws, ps)
		}
	}
	if uint64(wrapped.Start()) <= 1<<32 {
		t.Fatal("the window never crossed 2³²")
	}
}
