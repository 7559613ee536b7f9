package graph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mvg/internal/graph"
	"mvg/internal/motif"
	"mvg/internal/visibility"
)

// ringShapes returns the series the ring is pinned on, each of
// length n: the stream suite's adversarial shapes plus a smoothed walk,
// whose visibility graphs are far denser than a raw walk's.
func ringShapes(n int, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := map[string][]float64{
		"monotone": make([]float64, n),
		"constant": make([]float64, n),
		"sawtooth": make([]float64, n),
		"walk":     make([]float64, n),
		"smoothed": make([]float64, n),
	}
	level, smooth := 0.0, 0.0
	for i := 0; i < n; i++ {
		level += rng.NormFloat64()
		smooth = 0.9*smooth + 0.1*level
		out["monotone"][i] = float64(i)
		out["constant"][i] = 2.5
		out["sawtooth"][i] = float64(i % 7)
		out["walk"][i] = level
		out["smoothed"][i] = smooth
	}
	return out
}

// ringChecker slides a ring over a series, linking each new
// sample to its visibility neighbours in the window as the batch builder
// finds them, and checks the maintained counts and the statistics read
// off the ring against the ring's snapshot after every Evict and every
// Append.
type ringChecker struct {
	t     *testing.T
	hvg   bool
	b     visibility.Builder
	ctr   motif.Counter
	snap  graph.Graph
	nbrs  []int
	deg   []int
	cores graph.CoreScratch
	label string
}

func (c *ringChecker) run(series []float64, windowLen int) {
	c.t.Helper()
	r := graph.NewRingGraph(windowLen)
	c.check(r, "empty")
	for i := range series {
		if r.Len() == windowLen {
			r.Evict()
			c.check(r, "evict")
		}
		start := i - r.Len()
		c.nbrs = c.nbrs[:0]
		if r.Len() > 0 {
			var edges [][2]int
			var err error
			if c.hvg {
				edges, err = c.b.HVGEdges(series[start : i+1])
			} else {
				edges, err = c.b.VGEdges(series[start : i+1])
			}
			if err != nil {
				c.t.Fatal(err)
			}
			last := i - start
			for _, e := range edges {
				if e[1] == last {
					c.nbrs = append(c.nbrs, start+e[0])
				} else if e[0] == last {
					c.nbrs = append(c.nbrs, start+e[1])
				}
			}
			slices.Sort(c.nbrs)
		}
		r.Append(c.nbrs)
		c.check(r, "append")
	}
}

func (c *ringChecker) check(r *graph.RingGraph, op string) {
	c.t.Helper()
	r.ToCSR(&c.snap)
	got := r.Subgraphs()
	if gc, wc := motif.FromSubgraphs(got), c.ctr.Count(&c.snap); gc != wc {
		c.t.Fatalf("%s: after %s of window [%d,+%d): counts %+v, want %+v\nmaintained %+v\nrecount    %+v",
			c.label, op, r.Start(), r.Len(), gc, wc, got, c.ctr.Subgraphs(&c.snap))
	}
	ga, gok := got.Assortativity()
	wa, wok := c.snap.Assortativity()
	if gok != wok || math.Float64bits(ga) != math.Float64bits(wa) {
		c.t.Fatalf("%s: after %s: assortativity %v (%v), want %v (%v)", c.label, op, ga, gok, wa, wok)
	}
	c.checkStats(r, op)
}

// checkStats compares the degree statistics read off the ring with those
// of its snapshot, bit for bit: max, min and mean degree, density, degree
// entropy and degeneracy, and for an HVG window the degeneracy from its
// vertex and edge counts.
func (c *ringChecker) checkStats(r *graph.RingGraph, op string) {
	c.t.Helper()
	n, m := r.Len(), r.M()
	c.deg = r.DegreesInto(c.deg)
	maxDeg, minDeg := graph.DegreeRange(c.deg)
	wantMax, wantMin, wantMean := c.snap.DegreeStats()
	type stat struct {
		name      string
		got, want float64
	}
	wantCore := c.snap.DegeneracyScratch(&c.cores)
	stats := []stat{
		{"max degree", float64(maxDeg), float64(wantMax)},
		{"min degree", float64(minDeg), float64(wantMin)},
		{"mean degree", graph.MeanDegreeOf(n, m), wantMean},
		{"density", graph.DensityOf(n, m), c.snap.Density()},
		{"degree entropy", r.DegreeEntropyScratch(&c.cores), c.snap.DegreeEntropyScratch(&c.cores)},
		{"degeneracy", float64(r.DegeneracyScratch(&c.cores)), float64(wantCore)},
	}
	if c.hvg {
		stats = append(stats, stat{"HVG degeneracy", float64(graph.HVGDegeneracy(n, m)), float64(wantCore)})
	}
	for _, s := range stats {
		if math.Float64bits(s.got) != math.Float64bits(s.want) {
			c.t.Fatalf("%s: after %s of window [%d,+%d): ring %s %v, snapshot %v",
				c.label, op, r.Start(), r.Len(), s.name, s.got, s.want)
		}
	}
}

// TestRingSubgraphsAgainstBatch is the differential suite of the ring's
// maintained counts: VG and HVG windows of every shape and length, checked against
// motif.Counter on the snapshot after every mutation.
func TestRingSubgraphsAgainstBatch(t *testing.T) {
	for _, windowLen := range []int{2, 3, 16, 64, 512} {
		extra := 3 * windowLen
		if windowLen == 512 {
			extra = 96 // bound test time: 96 slides of the large window
		}
		for name, series := range ringShapes(windowLen+extra, int64(windowLen)) {
			for _, hvg := range []bool{false, true} {
				c := &ringChecker{t: t, hvg: hvg, label: name}
				if hvg {
					c.label += "/hvg"
				} else {
					c.label += "/vg"
				}
				c.run(series, windowLen)
			}
		}
	}
}

// TestRingSubgraphsDenseGraphs drives the ring with random edge
// sets far denser than visibility graphs produce, so that every term of
// the local count (4-cliques in particular) is exercised at volume.
func TestRingSubgraphsDenseGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := &ringChecker{t: t, label: "dense"}
	for _, capacity := range []int{5, 12} {
		r := graph.NewRingGraph(capacity)
		for step := 0; step < 600; step++ {
			if r.Len() == capacity || (r.Len() > 0 && rng.Intn(5) == 0) {
				r.Evict()
				c.check(r, "evict")
			}
			var nbrs []int
			for id := r.Start(); id < r.Start()+r.Len(); id++ {
				if rng.Intn(4) != 0 {
					nbrs = append(nbrs, id)
				}
			}
			r.Append(nbrs)
			c.check(r, "append")
		}
		r.Reset(capacity)
		c.check(r, "reset")
	}
}

// TestRingSubgraphsAllocFree pins the steady state: a warm ring
// slides without allocating.
func TestRingSubgraphsAllocFree(t *testing.T) {
	series := ringShapes(4096, 9)["walk"]
	inc, err := visibility.NewIncremental(256, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range series[:2048] {
		if err := inc.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	i := 2048
	allocs := testing.AllocsPerRun(512, func() {
		if err := inc.Push(series[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Fatalf("warm slide allocates %.2f/op, want 0", allocs)
	}
}

// FuzzRingStatsAgainstBatch fuzzes the ring against the batch
// counter and the snapshot's statistics: random samples and window
// lengths, VG and HVG, checked after every Append and Evict. The nightly
// fuzz workflow runs it for 5 minutes.
func FuzzRingStatsAgainstBatch(f *testing.F) {
	f.Add([]byte{16, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170})
	f.Add([]byte{4, 1, 1, 1, 1, 1, 1, 200, 3, 3, 3})
	f.Add([]byte{7, 255, 0, 255, 0, 255, 0, 255, 128, 64, 32, 16, 8, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		windowLen := 2 + int(data[0])%63 // 2..64
		samples := data[1:]
		if len(samples) > 256 {
			samples = samples[:256]
		}
		series := make([]float64, len(samples))
		for i, b := range samples {
			series[i] = float64(int(b)-128) / 8
		}
		for _, hvg := range []bool{false, true} {
			c := &ringChecker{t: t, hvg: hvg, label: "fuzz"}
			c.run(series, windowLen)
		}
	})
}
