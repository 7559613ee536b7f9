package motif

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"mvg/internal/graph"
	"mvg/internal/visibility"
)

// The golden-count test pins Count on visibility graphs far beyond the
// brute-force oracle's reach (n ≤ 28): the VG and HVG of deterministic
// 512- and 2048-point series, including a smoothed walk whose VG is
// hub-heavy (tens of thousands of edges, millions of 4-cliques). Kernel
// rewrites must reproduce every count exactly. Regenerate only when the
// corpus itself changes, never to absorb a kernel difference:
//
//	go test ./internal/motif -run TestGoldenCounts -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_counts.json from current output")

// goldenCountCase is one graph of the pinned corpus with its 17 counts.
type goldenCountCase struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Counts Counts `json:"counts"`
}

// randomWalk returns n steps of a Gaussian random walk from rng.
func randomWalk(n int, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	for i := 1; i < n; i++ {
		w[i] = w[i-1] + rng.NormFloat64()
	}
	return w
}

// smoothWalk returns the 16-point trailing moving average of a random
// walk: a slowly varying series whose VG has high-degree hubs and dense
// clique structure, the shape long fBm-like inputs produce.
func smoothWalk(n int, rng *rand.Rand) []float64 {
	const k = 16
	w := randomWalk(n+k-1, rng)
	out := make([]float64, n)
	for i := range out {
		var s float64
		for _, x := range w[i : i+k] {
			s += x
		}
		out[i] = s / k
	}
	return out
}

// goldenCountSeries returns the deterministic series of the corpus, keyed
// by kind and length. Each kind draws from its own seed, so its 512-point
// series is the first 512 points of its 2048-point one, and adding a kind
// never perturbs the others.
func goldenCountSeries() map[string][]float64 {
	out := map[string][]float64{}
	for _, n := range []int{512, 2048} {
		suffix := "/" + strconv.Itoa(n)
		out["smooth"+suffix] = smoothWalk(n, rand.New(rand.NewSource(1)))
		out["walk"+suffix] = randomWalk(n, rand.New(rand.NewSource(2)))
		rng := rand.New(rand.NewSource(3))
		ramp := make([]float64, n)
		for i := range ramp {
			ramp[i] = float64(i)/64 + rng.NormFloat64()
		}
		out["ramp"+suffix] = ramp
		saw := make([]float64, n)
		for i := range saw {
			saw[i] = float64(i%37) + 0.1*math.Sin(float64(i))
		}
		out["sawtooth"+suffix] = saw
		// Plateaus: a walk quantized to coarse levels, so long runs of
		// equal values exercise the builders' tie handling.
		plateau := randomWalk(n, rand.New(rand.NewSource(4)))
		for i := range plateau {
			plateau[i] = math.Round(plateau[i] / 4)
		}
		out["plateau"+suffix] = plateau
	}
	return out
}

// goldenCountGraphs builds the VG and HVG of every corpus series.
func goldenCountGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for name, s := range goldenCountSeries() {
		vg, err := visibility.VG(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hvg, err := visibility.HVG(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out["vg/"+name] = vg
		out["hvg/"+name] = hvg
	}
	return out
}

func TestGoldenCounts(t *testing.T) {
	path := filepath.Join("testdata", "golden_counts.json")
	graphs := goldenCountGraphs(t)
	var ctr Counter // one counter for the whole corpus: reuse must not perturb counts
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	current := make([]goldenCountCase, 0, len(names))
	for _, name := range names {
		g := graphs[name]
		current = append(current, goldenCountCase{Name: name, N: g.N(), M: g.M(), Counts: ctr.Count(g)})
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden count sets to %s", len(current), path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var golden []goldenCountCase
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(current) {
		t.Fatalf("golden file has %d graphs, current corpus has %d", len(golden), len(current))
	}
	for i, want := range golden {
		got := current[i]
		if got.Name != want.Name {
			t.Fatalf("graph %d: corpus has %q, golden file %q", i, got.Name, want.Name)
		}
		if got.N != want.N || got.M != want.M {
			t.Errorf("%s: graph is n=%d m=%d, golden n=%d m=%d (the corpus drifted, not the kernel)",
				got.Name, got.N, got.M, want.N, want.M)
			continue
		}
		gv, wv := got.Counts.Vector(), want.Counts.Vector()
		for k := range gv {
			if gv[k] != wv[k] {
				t.Errorf("%s: %s = %d, golden %d", got.Name, Names[k], gv[k], wv[k])
			}
		}
	}
}
