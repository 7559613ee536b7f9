package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mvg/internal/parallel"
)

func randSeries(n int, rng *rand.Rand) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = rng.NormFloat64()
	}
	return t
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options should be valid: %v", err)
	}
	if err := (Options{Scales: ScaleMode(9)}).Validate(); err == nil {
		t.Error("bad scale mode should fail")
	}
	if err := (Options{Graphs: GraphMode(9)}).Validate(); err == nil {
		t.Error("bad graph mode should fail")
	}
	if err := (Options{Features: FeatureMode(9)}).Validate(); err == nil {
		t.Error("bad feature mode should fail")
	}
	if _, err := NewExtractor(Options{Scales: ScaleMode(-1)}); err == nil {
		t.Error("NewExtractor should reject bad options")
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		Uniscale.String():         "UVG",
		ApproxMultiscale.String(): "AMVG",
		FullMultiscale.String():   "MVG",
		VGAndHVG.String():         "VG+HVG",
		VGOnly.String():           "VG",
		HVGOnly.String():          "HVG",
		AllFeatures.String():      "All",
		MPDsOnly.String():         "MPDs",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestExtractWidthMatchesNames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := randSeries(128, rng)
	for _, scales := range []ScaleMode{Uniscale, ApproxMultiscale, FullMultiscale} {
		for _, graphs := range []GraphMode{VGAndHVG, VGOnly, HVGOnly} {
			for _, feats := range []FeatureMode{AllFeatures, MPDsOnly} {
				e, err := NewExtractor(Options{Scales: scales, Graphs: graphs, Features: feats})
				if err != nil {
					t.Fatal(err)
				}
				v, err := e.Extract(series)
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", scales, graphs, feats, err)
				}
				names := e.FeatureNames(len(series))
				if len(v) != len(names) {
					t.Errorf("%v/%v/%v: %d features, %d names", scales, graphs, feats, len(v), len(names))
				}
				if len(v) != e.NumFeatures(len(series)) {
					t.Errorf("%v/%v/%v: NumFeatures=%d, got %d", scales, graphs, feats, e.NumFeatures(len(series)), len(v))
				}
			}
		}
	}
}

func TestExtractScaleCounts(t *testing.T) {
	e, err := NewExtractor(Options{}) // MVG defaults, tau=15
	if err != nil {
		t.Fatal(err)
	}
	// 128 → 64 → 32 → 16: T0..T3 = 4 scales.
	if got := e.NumScales(128); got != 4 {
		t.Errorf("NumScales(128) = %d, want 4", got)
	}
	a, _ := NewExtractor(Options{Scales: ApproxMultiscale})
	if got := a.NumScales(128); got != 3 {
		t.Errorf("AMVG NumScales(128) = %d, want 3", got)
	}
	u, _ := NewExtractor(Options{Scales: Uniscale})
	if got := u.NumScales(128); got != 1 {
		t.Errorf("UVG NumScales = %d, want 1", got)
	}
}

func TestExtractErrors(t *testing.T) {
	e, _ := NewExtractor(Options{})
	if _, err := e.Extract(nil); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := e.Extract([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN series should fail")
	}
	if _, err := e.Extract([]float64{1}); err == nil {
		t.Error("1-point series should fail")
	}
	// AMVG on a short series yields no scales at all.
	a, _ := NewExtractor(Options{Scales: ApproxMultiscale, Tau: 15})
	if _, err := a.Extract(randSeries(16, rand.New(rand.NewSource(1)))); err == nil {
		t.Error("AMVG on 16 points with tau=15 should fail")
	}
}

func TestExtractConstantSeries(t *testing.T) {
	// Constant series z-normalize to zeros; both graphs degrade to chains,
	// which must still extract cleanly.
	e, _ := NewExtractor(Options{})
	v, err := e.Extract(make([]float64, 64))
	if err != nil {
		t.Fatalf("constant series: %v", err)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("feature %d is %v", i, x)
		}
	}
}

func TestExtractFeatureRanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, _ := NewExtractor(Options{})
		v, err := e.Extract(randSeries(64+rng.Intn(128), rng))
		if err != nil {
			return false
		}
		names := e.FeatureNames(64)
		_ = names
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestExtractMPDGroupsNormalized(t *testing.T) {
	e, _ := NewExtractor(Options{Scales: Uniscale, Graphs: VGOnly, Features: MPDsOnly})
	v, err := e.Extract(randSeries(100, rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	// Group layout within the 17-wide block: {0,1},{2,3},{4,5},{6..11},{12..16}.
	groups := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7, 8, 9, 10, 11}, {12, 13, 14, 15, 16}}
	for gi, grp := range groups {
		sum := 0.0
		for _, i := range grp {
			sum += v[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("group %d sums to %v", gi, sum)
		}
	}
}

func TestExtractAffineInvariance(t *testing.T) {
	// MVG features must be identical for affine-transformed series (the
	// graphs are invariant; z-norm handles the scaling before PAA).
	rng := rand.New(rand.NewSource(11))
	series := randSeries(128, rng)
	scaled := make([]float64, len(series))
	for i, v := range series {
		scaled[i] = 3.7*v - 42
	}
	e, _ := NewExtractor(Options{})
	a, err1 := e.Extract(series)
	b, err2 := e.Extract(scaled)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("feature %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestExtractDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	series := make([][]float64, 40)
	for i := range series {
		series[i] = randSeries(96, rng)
	}
	e, _ := NewExtractor(Options{})
	X, err := e.ExtractDataset(series)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != len(series) {
		t.Fatalf("got %d rows", len(X))
	}
	// Deterministic across calls (parallel workers must not change results).
	X2, err := e.ExtractDataset(series)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		for j := range X[i] {
			if X[i][j] != X2[i][j] {
				t.Fatalf("non-deterministic extraction at [%d][%d]", i, j)
			}
		}
	}
	// Serial extraction matches parallel extraction.
	for i := range series[:5] {
		v, err := e.Extract(series[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			if v[j] != X[i][j] {
				t.Fatalf("parallel/serial mismatch at [%d][%d]", i, j)
			}
		}
	}
	if _, err := e.ExtractDataset(nil); err == nil {
		t.Error("empty dataset should fail")
	}
	// Mixed lengths produce different widths → error.
	bad := [][]float64{randSeries(64, rng), randSeries(256, rng)}
	if _, err := e.ExtractDataset(bad); err == nil {
		t.Error("mixed series lengths should fail")
	}
}

func TestFeatureNamesFormat(t *testing.T) {
	e, _ := NewExtractor(Options{})
	names := e.FeatureNames(128)
	if names[0] != "T0.VG.P(M21)" {
		t.Errorf("first name = %q", names[0])
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	// AMVG names start at T1.
	a, _ := NewExtractor(Options{Scales: ApproxMultiscale})
	if got := a.FeatureNames(128)[0]; got != "T1.VG.P(M21)" {
		t.Errorf("AMVG first name = %q", got)
	}
}

func TestExtendedFeatures(t *testing.T) {
	series := randSeries(128, rand.New(rand.NewSource(2)))
	base, _ := NewExtractor(Options{Scales: Uniscale})
	ext, _ := NewExtractor(Options{Scales: Uniscale, Extended: true})
	vb, err := base.Extract(series)
	if err != nil {
		t.Fatal(err)
	}
	ve, err := ext.Extract(series)
	if err != nil {
		t.Fatal(err)
	}
	// Two graphs per scale, two extended features each.
	if len(ve) != len(vb)+4 {
		t.Fatalf("extended width %d, base %d", len(ve), len(vb))
	}
	names := ext.FeatureNames(128)
	if len(names) != len(ve) {
		t.Fatalf("names %d vs features %d", len(names), len(ve))
	}
	foundEntropy, foundTrans := false, false
	for i, n := range names {
		if n == "T0.VG.DegreeEntropy" {
			foundEntropy = true
			if ve[i] <= 0 {
				t.Errorf("degree entropy = %v, expected positive for noise VG", ve[i])
			}
		}
		if n == "T0.VG.Transitivity" {
			foundTrans = true
			if ve[i] <= 0 || ve[i] > 1 {
				t.Errorf("transitivity = %v out of (0,1]", ve[i])
			}
		}
	}
	if !foundEntropy || !foundTrans {
		t.Error("extended feature names missing")
	}
	// Extended also composes with MPDsOnly.
	me, _ := NewExtractor(Options{Scales: Uniscale, Features: MPDsOnly, Extended: true})
	vm, err := me.Extract(series)
	if err != nil {
		t.Fatal(err)
	}
	if len(vm) != 2*(17+2) {
		t.Errorf("MPDs+extended width = %d, want 38", len(vm))
	}
}

// TestScratchReusePurity verifies that reusing one Scratch across many
// series of varying lengths and configurations yields bit-identical
// results to fresh-scratch extraction — the property the parallel batch
// engine's determinism guarantee rests on.
func TestScratchReusePurity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, opts := range []Options{
		{},
		{Scales: Uniscale},
		{Scales: ApproxMultiscale},
		{Graphs: VGOnly},
		{Graphs: HVGOnly, Features: MPDsOnly},
		{Extended: true},
		{NoDetrend: true, NoZNormalize: true},
	} {
		e, err := NewExtractor(opts)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		// Alternate lengths so buffers shrink and grow between series.
		for _, n := range []int{96, 200, 64, 256, 100, 64} {
			series := randSeries(n, rng)
			want, err := e.Extract(series)
			if err != nil {
				t.Fatalf("%+v n=%d: %v", opts, n, err)
			}
			got, err := e.ExtractWith(sc, series)
			if err != nil {
				t.Fatalf("%+v n=%d: %v", opts, n, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%+v n=%d: width %d vs %d", opts, n, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%+v n=%d: feature %d differs: %v vs %v",
						opts, n, j, got[j], want[j])
				}
			}
		}
	}
}

// TestExtractDatasetPoolDeterministic pins the worker-count invariance
// of the batch engine at the core layer, on one pool whose workers keep
// their scratch as the cap grows.
func TestExtractDatasetPoolDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	series := make([][]float64, 30)
	for i := range series {
		series[i] = randSeries(128, rng)
	}
	e, _ := NewExtractor(Options{})
	pool := parallel.NewPool(NewScratch)
	defer pool.Close()
	ref, err := e.ExtractDatasetPool(context.Background(), pool, 1, series)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		X, err := e.ExtractDatasetPool(context.Background(), pool, workers, series)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			for j := range ref[i] {
				if math.Float64bits(X[i][j]) != math.Float64bits(ref[i][j]) {
					t.Fatalf("workers=%d: [%d][%d] differs", workers, i, j)
				}
			}
		}
	}
}

// TestTauClampConsistency pins the agreement between NumFeatures and the
// actual extracted width across tau values, including tau=1, which used to
// slip past the constructor unclamped and desynchronize NumScales from the
// pyramid the extraction actually built.
func TestTauClampConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	series := randSeries(96, rng)
	for _, tau := range []int{-3, -1, 0, 1, 2, 3, 15, 40, 63} {
		e, err := NewExtractor(Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.Extract(series)
		if err != nil {
			t.Fatalf("tau=%d: %v", tau, err)
		}
		if want := e.NumFeatures(len(series)); len(v) != want {
			t.Fatalf("tau=%d: extracted width %d, NumFeatures says %d", tau, len(v), want)
		}
	}
}
