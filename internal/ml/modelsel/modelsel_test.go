package modelsel

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"mvg/internal/grids"
	"mvg/internal/ml"
	"mvg/internal/ml/cart"
	"mvg/internal/ml/mltest"
	"mvg/internal/ml/xgb"
)

func TestStratifiedKFolds(t *testing.T) {
	y := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	folds, err := StratifiedKFolds(y, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("got %d folds", len(folds))
	}
	seen := map[int]int{}
	for _, fold := range folds {
		class0 := 0
		for _, i := range fold {
			seen[i]++
			if y[i] == 0 {
				class0++
			}
		}
		// Perfectly balanced labels must stratify 2/2 per fold.
		if class0 != 2 {
			t.Errorf("fold has %d class-0 samples, want 2", class0)
		}
	}
	if len(seen) != len(y) {
		t.Errorf("folds cover %d of %d indices", len(seen), len(y))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d appears %d times", i, c)
		}
	}
}

func TestStratifiedKFoldsErrors(t *testing.T) {
	if _, err := StratifiedKFolds([]int{0, 1}, 1, 1); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := StratifiedKFolds([]int{0}, 2, 1); err == nil {
		t.Error("fewer samples than folds should fail")
	}
}

func TestSplit(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{0, 0, 1, 1}
	folds := [][]int{{0, 2}, {1, 3}}
	trX, trY, vaX, vaY := Split(X, y, folds, 0)
	if len(trX) != 2 || len(vaX) != 2 {
		t.Fatalf("split sizes: %d/%d", len(trX), len(vaX))
	}
	if vaX[0][0] != 0 || vaX[1][0] != 2 {
		t.Errorf("validation rows wrong: %v", vaX)
	}
	if trY[0] != 0 || trY[1] != 1 {
		t.Errorf("train labels wrong: %v", trY)
	}
	_ = vaY
}

func TestOversampleBalances(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}}
	y := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	ox, oy := Oversample(X, y, 2, 3)
	counts := ml.ClassCounts(oy, 2)
	if counts[0] != counts[1] {
		t.Errorf("oversampled counts = %v, want balanced", counts)
	}
	if len(ox) != len(oy) {
		t.Error("row/label mismatch after oversampling")
	}
	// Every oversampled minority row must be one of the originals.
	valid := map[float64]bool{8: true, 9: true}
	for i, label := range oy {
		if label == 1 && !valid[ox[i][0]] {
			t.Errorf("unknown minority row %v", ox[i])
		}
	}
}

func TestCrossValidateAndGridSearch(t *testing.T) {
	X, y := mltest.Blobs(90, 2, 4, 0.8, 5)
	good := cart.New(cart.Params{MaxDepth: 6})
	bad := cart.New(cart.Params{MaxDepth: 1, MinSamplesLeaf: 40})
	res, err := CrossValidate(context.Background(), good, X, y, 2, 3, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate > 0.15 {
		t.Errorf("CV error rate = %v for separable blobs", res.ErrorRate)
	}
	results, err := GridSearch(context.Background(), nil, []ml.Classifier{bad, good}, X, y, 2, 3, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].LogLoss > results[1].LogLoss {
		t.Error("grid search results not sorted by log loss")
	}
	if results[0].Candidate != ml.Classifier(good) {
		t.Error("deeper tree should win on separable blobs")
	}
	if _, err := GridSearch(context.Background(), nil, nil, X, y, 2, 3, false, 1); err == nil {
		t.Error("empty grid should fail")
	}
}

func TestBestRefitsOnFullData(t *testing.T) {
	X, y := mltest.Blobs(90, 3, 4, 0.8, 9)
	cands := []ml.Classifier{
		cart.New(cart.Params{MaxDepth: 2}),
		cart.New(cart.Params{MaxDepth: 8}),
	}
	model, results, err := Best(context.Background(), nil, cands, X, y, 3, 3, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	proba, err := model.PredictProba(X)
	if err != nil {
		t.Fatalf("winner is not fitted: %v", err)
	}
	if acc := ml.Accuracy(ml.Predict(proba), y); acc < 0.9 {
		t.Errorf("refit winner training accuracy = %v", acc)
	}
}

// skewedBlobs draws three blobs and keeps a third of class 2, so
// oversampling has minority rows to duplicate.
func skewedBlobs(n, dims int, seed int64) ([][]float64, []int) {
	X, y := mltest.Blobs(n, 3, dims, 1.5, seed)
	var outX [][]float64
	var outY []int
	for i := range X {
		if y[i] != 2 || i%3 == 0 {
			outX = append(outX, X[i])
			outY = append(outY, y[i])
		}
	}
	return outX, outY
}

// requireSameResults fails unless got equals want bit for bit, in order.
func requireSameResults(t *testing.T, got, want []CVResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Candidate != w.Candidate ||
			math.Float64bits(g.LogLoss) != math.Float64bits(w.LogLoss) ||
			math.Float64bits(g.ErrorRate) != math.Float64bits(w.ErrorRate) {
			t.Fatalf("result %d: got %p (%v, %v), want %p (%v, %v)",
				i, g.Candidate, g.LogLoss, g.ErrorRate, w.Candidate, w.LogLoss, w.ErrorRate)
		}
	}
}

// perCandidate is the reference a shared-fit grid search must reproduce:
// each candidate's own CrossValidate, stably sorted by log loss.
func perCandidate(t *testing.T, cands []ml.Classifier, X [][]float64, y []int, classes int, oversample bool) []CVResult {
	t.Helper()
	want := make([]CVResult, len(cands))
	for i, c := range cands {
		var err error
		if want[i], err = CrossValidate(context.Background(), c, X, y, classes, 3, oversample, 5); err != nil {
			t.Fatal(err)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].LogLoss < want[j].LogLoss })
	return want
}

// TestGridSearchMatchesCrossValidate: boosting candidates are scored from
// the fits of the longest candidate they are a prefix of, and every result
// must still equal that candidate's own CrossValidate, in the same order.
func TestGridSearchMatchesCrossValidate(t *testing.T) {
	X, y := skewedBlobs(54, 8, 21)
	quick := grids.XGB(grids.Quick, 1)
	twin := *quick[2].(*xgb.Model) // equal parameters, distinct candidate
	lists := []struct {
		name  string
		cands []ml.Classifier
	}{
		{"quick xgb", quick},
		{"full xgb", grids.XGB(grids.Full, 1)},
		{"rf and xgb", append(grids.RF(grids.Quick, 1)[:2], grids.XGB(grids.Quick, 2)...)},
		{"duplicates", append([]ml.Classifier{quick[2], &twin}, quick...)},
	}
	for _, l := range lists {
		for _, oversample := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/oversample=%v", l.name, oversample), func(t *testing.T) {
				got, err := GridSearch(context.Background(), nil, l.cands, X, y, 3, 3, oversample, 5)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, got, perCandidate(t, l.cands, X, y, 3, oversample))
			})
		}
	}
}

// prefixFake stands in for a booster: a fit with fewer rounds is a prefix
// of a longer fit in the same family. Every fit is counted.
type prefixFake struct {
	family, rounds int
	fits           *atomic.Int64
	freq           []float64 // class frequencies of the training labels
}

func (f *prefixFake) Clone() ml.Classifier {
	return &prefixFake{family: f.family, rounds: f.rounds, fits: f.fits}
}

func (f *prefixFake) Fit(X [][]float64, y []int, classes int) error {
	f.fits.Add(1)
	f.freq = make([]float64, classes)
	for c, n := range ml.ClassCounts(y, classes) {
		f.freq[c] = float64(n)
	}
	ml.Normalize(f.freq)
	return nil
}

// PredictProba leans on the row's own axis more with every round.
func (f *prefixFake) PredictProba(X [][]float64) ([][]float64, error) {
	if f.freq == nil {
		return nil, ml.ErrNotFitted
	}
	out := make([][]float64, len(X))
	for i, row := range X {
		p := make([]float64, len(f.freq))
		for c := range p {
			p[c] = f.freq[c] + float64(f.rounds)*math.Max(0, row[c%len(row)])/100
		}
		out[i] = ml.Normalize(p)
	}
	return out, nil
}

func (f *prefixFake) PrefixOf(c ml.Classifier) (int, bool) {
	o, ok := c.(*prefixFake)
	if !ok || o.family != f.family || o.rounds > f.rounds {
		return 0, false
	}
	return o.rounds, true
}

func (f *prefixFake) Truncate(k int) ml.Classifier {
	return &prefixFake{family: f.family, rounds: k, fits: f.fits, freq: f.freq}
}

// TestGridSearchFitsEachHostOncePerFold pins the grouping: a candidate is
// scored from the candidate with the most rounds whose fit it is a prefix
// of, so the search fits hosts × folds times, however many guests ride.
func TestGridSearchFitsEachHostOncePerFold(t *testing.T) {
	X, y := skewedBlobs(54, 4, 22)
	var fits atomic.Int64
	fake := func(family, rounds int) ml.Classifier {
		return &prefixFake{family: family, rounds: rounds, fits: &fits}
	}
	// Hosts: family 0 at 30 rounds (the first of two), family 1 at 5
	// rounds, and the tree, which is not Prefixed and hosts only itself.
	cands := []ml.Classifier{
		fake(0, 10), fake(0, 30), fake(1, 5), fake(0, 20),
		cart.New(cart.Params{MaxDepth: 3}), fake(1, 5), fake(0, 30), fake(1, 2),
	}
	const hosts, folds = 2, 3
	got, err := GridSearch(context.Background(), nil, cands, X, y, 3, folds, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n := fits.Load(); n != hosts*folds {
		t.Errorf("grid search fitted the fakes %d times, want hosts × folds = %d", n, hosts*folds)
	}
	requireSameResults(t, got, perCandidate(t, cands, X, y, 3, true))
}
