package xgb

import (
	"math"
	"testing"

	"mvg/internal/ml"
	"mvg/internal/ml/mltest"
)

func TestConformance(t *testing.T) {
	mltest.Conformance(t, "xgb", func() ml.Classifier {
		return New(Params{NumRounds: 30, MaxDepth: 3, Seed: 1})
	})
}

func TestLearnsXOR(t *testing.T) {
	X, y := mltest.XOR(300, 5)
	m := New(Params{NumRounds: 50, MaxDepth: 4, LearningRate: 0.3, Seed: 2})
	if err := m.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.XOR(200, 99)
	proba, err := m.PredictProba(testX)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(ml.Predict(proba), testY); acc < 0.9 {
		t.Errorf("XOR test accuracy = %v, want ≥0.9", acc)
	}
}

func TestMoreRoundsFitTighter(t *testing.T) {
	X, y := mltest.Blobs(120, 3, 4, 1.5, 7)
	few := New(Params{NumRounds: 2, MaxDepth: 3, Seed: 4})
	many := New(Params{NumRounds: 60, MaxDepth: 3, Seed: 4})
	if err := few.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	pf, _ := few.PredictProba(X)
	pm, _ := many.PredictProba(X)
	if ml.LogLoss(pm, y) >= ml.LogLoss(pf, y) {
		t.Errorf("training loss should drop with rounds: %v → %v",
			ml.LogLoss(pf, y), ml.LogLoss(pm, y))
	}
}

func TestSubsamplingStillLearns(t *testing.T) {
	X, y := mltest.Blobs(150, 2, 4, 0.8, 9)
	m := New(Params{NumRounds: 40, MaxDepth: 3, Subsample: 0.5, ColsampleByTree: 0.5, Seed: 5})
	if err := m.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.Blobs(100, 2, 4, 0.8, 55)
	proba, err := m.PredictProba(testX)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(ml.Predict(proba), testY); acc < 0.9 {
		t.Errorf("subsampled accuracy = %v", acc)
	}
}

func TestFeatureImportance(t *testing.T) {
	// Only feature 0 carries signal; importance must concentrate there.
	X, y := mltest.Blobs(200, 2, 1, 0.5, 11)
	wide := make([][]float64, len(X))
	for i, row := range X {
		wide[i] = []float64{row[0], float64(i % 7), float64((i * 13) % 5)}
	}
	m := New(Params{NumRounds: 20, MaxDepth: 3, Seed: 3})
	if err := m.Fit(wide, y, 2); err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance length = %d", len(imp))
	}
	if imp[0] < 0.5 || imp[0] <= imp[1] || imp[0] <= imp[2] {
		t.Errorf("feature 0 should dominate importance, got %v", imp)
	}
	sum := imp[0] + imp[1] + imp[2]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importance sums to %v", sum)
	}
}

func TestDeterministic(t *testing.T) {
	X, y := mltest.Blobs(100, 3, 4, 1.0, 13)
	run := func() float64 {
		m := New(Params{NumRounds: 15, MaxDepth: 3, Subsample: 0.7, Seed: 77})
		if err := m.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		proba, _ := m.PredictProba(X)
		return ml.LogLoss(proba, y)
	}
	if run() != run() {
		t.Error("boosting is not deterministic under a fixed seed")
	}
}

// TestTruncateIsTheShorterFit: the first k rounds of a longer fit are the
// k-round fit, so their predictions agree bit for bit, and refitting the
// longer model afterwards leaves the truncation as it was.
func TestTruncateIsTheShorterFit(t *testing.T) {
	X, y := mltest.Blobs(90, 3, 6, 1.5, 17)
	p := Params{NumRounds: 20, MaxDepth: 4, Subsample: 0.5, ColsampleByTree: 0.5, Seed: 3}
	long, short := New(p), New(p)
	short.P.NumRounds = 8
	for _, m := range []*Model{long, short} {
		if err := m.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
	}
	k, ok := long.PrefixOf(short)
	if !ok || k != 8 {
		t.Fatalf("PrefixOf(8-round fit) = %d, %v; want 8, true", k, ok)
	}
	for _, other := range []Params{
		{NumRounds: 30, MaxDepth: 4, Subsample: 0.5, ColsampleByTree: 0.5, Seed: 3}, // more rounds
		{NumRounds: 8, MaxDepth: 5, Subsample: 0.5, ColsampleByTree: 0.5, Seed: 3},
		{NumRounds: 8, MaxDepth: 4, Subsample: 0.5, ColsampleByTree: 0.5, Seed: 4},
	} {
		if _, ok := long.PrefixOf(New(other)); ok {
			t.Errorf("PrefixOf(%+v) = true", other)
		}
	}
	cut := long.Truncate(k)
	want, err := short.PredictProba(X)
	if err != nil {
		t.Fatal(err)
	}
	X2, y2 := mltest.Blobs(60, 3, 6, 1.5, 18)
	if err := long.Fit(X2, y2, 3); err != nil {
		t.Fatal(err)
	}
	got, err := cut.PredictProba(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for c := range want[i] {
			if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
				t.Fatalf("row %d class %d: truncated %v, 8-round fit %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// BenchmarkXGBFit is one quick-grid host fit on one training fold of a
// SynthECG-sized set: 40 rows × 184 features, 3 classes, 50 rounds at
// depth 6, rows and columns sampled at 0.5. Its features are continuous,
// so no node's values tie.
func BenchmarkXGBFit(b *testing.B) {
	benchmarkFit(b, 0)
}

// BenchmarkXGBFitTies is BenchmarkXGBFit on features rounded to whole
// numbers, about seven levels each, as the degree features and the
// golden corpus tie: nodes of more than 12 rows with ties fall back to
// sorting.
func BenchmarkXGBFitTies(b *testing.B) {
	benchmarkFit(b, 1)
}

// benchmarkFit times the quick-grid fit on features quantized to step,
// or continuous when step is 0.
func benchmarkFit(b *testing.B, step float64) {
	X, y := mltest.Blobs(40, 3, 184, 1.5, 1)
	if step > 0 {
		X = quantize(X, step)
	}
	p := Params{NumRounds: 50, MaxDepth: 6, LearningRate: 0.3, Subsample: 0.5, ColsampleByTree: 0.5, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := New(p).Fit(X, y, 3); err != nil {
			b.Fatal(err)
		}
	}
}
