package main

import (
	"math"
	"math/rand"
	"testing"

	"mvg/internal/stats"
)

func TestSignedRankPExact(t *testing.T) {
	for _, c := range []struct {
		name  string
		diffs []float64
		want  float64
	}{
		{"no pairs", nil, 1},
		{"only zeros", []float64{0, 0}, 1},
		{"one win", []float64{0.3}, 1},
		{"12 wins of 12", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, math.Ldexp(1, -11)},
		{"12 losses of 12", []float64{-1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12}, math.Ldexp(1, -11)},
		{"20 wins of 20", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, math.Ldexp(1, -19)},
		// Ranks 1..4, W+ = 6 of 10: every sum but the two at the mean 5.
		{"one loss of four", []float64{1, 2, 3, -4}, 14.0 / 16},
		// Zeros are dropped: two wins of two.
		{"zeros dropped", []float64{0, 0.5, 0, 2}, 0.5},
		// Midranks 1.5, 1.5, 3: only the two extreme sums reach W+ = 6.
		{"midranks", []float64{1, 1, 2}, 2.0 / 8},
		// Midranks 2, 2, 2 and W+ = 4, one rank from the mean: all 8.
		{"all tied", []float64{1, -1, 1}, 1},
	} {
		if got := signedRankP(c.diffs); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("%s: p %v, want %v", c.name, got, c.want)
		}
	}
}

// Above exactPairs, signedRankP is the normal approximation that
// stats.Wilcoxon computes for the paper's tables.
func TestSignedRankPNormalMatchesWilcoxon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared := 0
	for trial := 0; trial < 50; trial++ {
		n := exactPairs + 1 + rng.Intn(40)
		a, b, d := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(8))
			b[i] = float64(rng.Intn(8)) + 0.5*float64(trial%3)
			d[i] = a[i] - b[i]
		}
		want, err := stats.Wilcoxon(a, b)
		if err != nil || want.N <= exactPairs {
			continue // too few non-zero differences for the approximation
		}
		if got := signedRankP(d); math.Abs(got-want.P) > 1e-12 {
			t.Errorf("trial %d (n=%d): p %v, stats.Wilcoxon %v", trial, n, got, want.P)
		}
		compared++
	}
	if compared < 25 {
		t.Fatalf("only %d of 50 trials had more than %d non-zero differences", compared, exactPairs)
	}
}

func TestGainsSignedForTheChange(t *testing.T) {
	w := workload{Runs: []run{
		{Seed: 1, Side: "parent", Metrics: map[string]float64{"lat": 3, "thr": 10}},
		{Seed: 1, Side: "change", Metrics: map[string]float64{"lat": 2, "thr": 12}},
		{Seed: 2, Side: "change", Metrics: map[string]float64{"lat": 5, "thr": 9}},
		{Seed: 2, Side: "parent", Metrics: map[string]float64{"lat": 4, "thr": 10}},
		{Seed: 3, Side: "parent", Exit: 3},
		{Seed: 3, Side: "change", Metrics: map[string]float64{"lat": 1, "thr": 20}},
	}}
	for _, c := range []struct {
		m    metricSpec
		want []float64
	}{
		{metricSpec{Name: "lat", Better: "lower"}, []float64{1, -1}},
		{metricSpec{Name: "thr", Better: "higher"}, []float64{2, -1}},
	} {
		got := gains(w, c.m)
		if len(got) != len(c.want) {
			t.Fatalf("%s: gains %v, want %v (the refused pair left out)", c.m.Name, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: gains %v, want %v", c.m.Name, got, c.want)
			}
		}
	}
}
