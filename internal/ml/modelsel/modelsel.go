// Package modelsel provides the model-selection machinery of Section 3.2:
// stratified k-fold cross validation, grid search scored by cross entropy,
// and random oversampling of minority classes for imbalanced data.
package modelsel

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"mvg/internal/ml"
	"mvg/internal/parallel"
)

// StratifiedKFolds partitions sample indices into k folds preserving class
// proportions (the paper uses stratified 3-fold CV). Classes with fewer
// samples than folds still contribute to some folds; every index appears in
// exactly one fold.
func StratifiedKFolds(y []int, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("modelsel: need k >= 2 folds, got %d", k)
	}
	if len(y) < k {
		return nil, fmt.Errorf("modelsel: %d samples cannot fill %d folds", len(y), k)
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := map[int][]int{}
	for i, label := range y {
		byClass[label] = append(byClass[label], i)
	}
	labels := make([]int, 0, len(byClass))
	for label := range byClass {
		labels = append(labels, label)
	}
	sort.Ints(labels)
	folds := make([][]int, k)
	next := 0
	for _, label := range labels {
		idx := byClass[label]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx {
			folds[next%k] = append(folds[next%k], i)
			next++
		}
	}
	for fi, fold := range folds {
		if len(fold) == 0 {
			return nil, fmt.Errorf("modelsel: fold %d empty", fi)
		}
		sort.Ints(fold)
	}
	return folds, nil
}

// Split materializes the train/validation matrices for one held-out fold.
func Split(X [][]float64, y []int, folds [][]int, hold int) (trX [][]float64, trY []int, vaX [][]float64, vaY []int) {
	inHold := map[int]bool{}
	for _, i := range folds[hold] {
		inHold[i] = true
	}
	for i := range X {
		if inHold[i] {
			vaX = append(vaX, X[i])
			vaY = append(vaY, y[i])
		} else {
			trX = append(trX, X[i])
			trY = append(trY, y[i])
		}
	}
	return
}

// Oversample balances classes by sampling minority-class rows with
// replacement until every class matches the majority count (Section 3.2).
// Rows are shared, not copied. The returned order is shuffled.
func Oversample(X [][]float64, y []int, classes int, seed int64) ([][]float64, []int) {
	counts := ml.ClassCounts(y, classes)
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	rng := rand.New(rand.NewSource(seed))
	outX := make([][]float64, 0, maxCount*classes)
	outY := make([]int, 0, maxCount*classes)
	outX = append(outX, X...)
	outY = append(outY, y...)
	byClass := make([][]int, classes)
	for i, label := range y {
		byClass[label] = append(byClass[label], i)
	}
	for c, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		for extra := counts[c]; extra < maxCount; extra++ {
			j := idx[rng.Intn(len(idx))]
			outX = append(outX, X[j])
			outY = append(outY, c)
		}
	}
	rng.Shuffle(len(outX), func(a, b int) {
		outX[a], outX[b] = outX[b], outX[a]
		outY[a], outY[b] = outY[b], outY[a]
	})
	return outX, outY
}

// CVResult reports one candidate's cross-validation outcome.
type CVResult struct {
	Candidate ml.Classifier
	// LogLoss is the mean validation cross entropy across folds
	// (equation 5 — the paper's model-selection score).
	LogLoss float64
	// ErrorRate is the mean validation error rate across folds.
	ErrorRate float64
}

// CrossValidate scores one candidate configuration with stratified k-fold
// CV, optionally oversampling each training split. The context is checked
// between folds, so a cancelled grid search stops mid-candidate rather
// than finishing every remaining fold.
func CrossValidate(ctx context.Context, c ml.Classifier, X [][]float64, y []int, classes, folds int, oversample bool, seed int64) (CVResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fs, err := StratifiedKFolds(y, folds, seed)
	if err != nil {
		return CVResult{}, err
	}
	var totalLL, totalER float64
	for hold := range fs {
		if err := ctx.Err(); err != nil {
			return CVResult{}, err
		}
		trX, trY, vaX, vaY := Split(X, y, fs, hold)
		if oversample {
			trX, trY = Oversample(trX, trY, classes, seed+int64(hold))
		}
		model := c.Clone()
		if err := model.Fit(trX, trY, classes); err != nil {
			return CVResult{}, fmt.Errorf("modelsel: fold %d: %w", hold, err)
		}
		proba, err := model.PredictProba(vaX)
		if err != nil {
			return CVResult{}, err
		}
		totalLL += ml.LogLoss(proba, vaY)
		totalER += ml.ErrorRate(ml.Predict(proba), vaY)
	}
	n := float64(len(fs))
	return CVResult{Candidate: c, LogLoss: totalLL / n, ErrorRate: totalER / n}, nil
}

// GridSearch cross-validates every candidate on the given executor — the
// persistent pool of an mvg.Pipeline, or, when run is nil, a pool of
// GOMAXPROCS workers that lives for this call — and returns the results
// sorted by ascending log loss (best first, original grid order breaking
// ties so the outcome is deterministic regardless of the worker count).
// The context cancels the search between cross-validation jobs, returning
// ctx.Err(). Candidates that fail to train are skipped; an error is
// returned only if all fail.
func GridSearch(ctx context.Context, run parallel.Runner, candidates []ml.Classifier, X [][]float64, y []int, classes, folds int, oversample bool, seed int64) ([]CVResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("modelsel: no candidates")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if run == nil {
		pool := parallel.NewPool(func() struct{} { return struct{}{} })
		defer pool.Close()
		run = func(ctx context.Context, n int, fn func(i int) error) error {
			return pool.ForEach(ctx, 0, n, func(_ struct{}, i int) error { return fn(i) })
		}
	}
	type slot struct {
		res CVResult
		err error
	}
	slots := make([]slot, len(candidates))
	err := run(ctx, len(candidates), func(i int) error {
		slots[i].res, slots[i].err = CrossValidate(ctx, candidates[i], X, y, classes, folds, oversample, seed)
		return nil // per-candidate failures are tolerated below
	})
	if err != nil {
		return nil, err // cancellation (or executor shutdown), not a candidate failure
	}

	var results []CVResult
	var lastErr error
	for _, s := range slots {
		if s.err != nil {
			lastErr = s.err
			continue
		}
		results = append(results, s.res)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("modelsel: every candidate failed: %w", lastErr)
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].LogLoss < results[j].LogLoss })
	return results, nil
}

// Best runs GridSearch and returns the winning configuration refitted on
// the full (optionally oversampled) training set. See GridSearch for the
// executor and cancellation semantics.
func Best(ctx context.Context, run parallel.Runner, candidates []ml.Classifier, X [][]float64, y []int, classes, folds int, oversample bool, seed int64) (ml.Classifier, []CVResult, error) {
	results, err := GridSearch(ctx, run, candidates, X, y, classes, folds, oversample, seed)
	if err != nil {
		return nil, nil, err
	}
	trX, trY := X, y
	if oversample {
		trX, trY = Oversample(X, y, classes, seed)
	}
	winner := results[0].Candidate.Clone()
	if err := winner.Fit(trX, trY, classes); err != nil {
		return nil, nil, err
	}
	return winner, results, nil
}
