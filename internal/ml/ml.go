// Package ml provides the shared machine-learning substrate for the MVG
// pipeline: the Classifier interface implemented by every model family
// (trees, forests, boosting, SVM, kNN, logistic regression, stacking),
// classification metrics, and feature scaling.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Classifier is a trainable multi-class classification model.
//
// Fit trains on feature matrix X (rows are samples) with labels y in
// [0, classes). PredictProba returns one probability vector per row of X,
// each of length classes and summing to one. Clone returns a fresh,
// untrained model with identical hyper-parameters (used by cross
// validation and stacking, which train many copies).
type Classifier interface {
	Fit(X [][]float64, y []int, classes int) error
	PredictProba(X [][]float64) ([][]float64, error)
	Clone() Classifier
}

// Prefixed is implemented by classifiers whose shorter fits are prefixes
// of longer ones: fitted on the same data, a configuration that differs
// only in its iteration count yields exactly the first iterations of the
// longer fit, so one fit can score several configurations (boosting
// rounds in grid search).
type Prefixed interface {
	// PrefixOf reports whether c's fit on any data is the first k
	// iterations of the receiver's fit on that data.
	PrefixOf(c Classifier) (k int, ok bool)
	// Truncate returns the first k iterations of the fitted receiver as
	// a fitted classifier whose predictions equal those of a k-iteration
	// fit, bit for bit.
	Truncate(k int) Classifier
}

// Named is implemented by classifiers that can describe their configured
// hyper-parameters; used in experiment reports.
type Named interface {
	Name() string
}

// Common validation errors.
var (
	ErrNoData        = errors.New("ml: empty training set")
	ErrBadLabels     = errors.New("ml: labels out of range")
	ErrNotFitted     = errors.New("ml: model is not fitted")
	ErrShapeMismatch = errors.New("ml: X and y shape mismatch")
)

// CheckTrainingSet validates a (X, y, classes) triple.
func CheckTrainingSet(X [][]float64, y []int, classes int) error {
	if len(X) == 0 {
		return ErrNoData
	}
	if len(X) != len(y) {
		return fmt.Errorf("%w: %d rows, %d labels", ErrShapeMismatch, len(X), len(y))
	}
	if classes < 2 {
		return fmt.Errorf("ml: need at least 2 classes, got %d", classes)
	}
	width := len(X[0])
	for i, row := range X {
		if len(row) != width {
			return fmt.Errorf("%w: row %d has %d features, row 0 has %d",
				ErrShapeMismatch, i, len(row), width)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: non-finite feature X[%d][%d]=%v", i, j, v)
			}
		}
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return fmt.Errorf("%w: y[%d]=%d with %d classes", ErrBadLabels, i, label, classes)
		}
	}
	return nil
}

// Predict reduces probability vectors to hard labels via argmax.
func Predict(proba [][]float64) []int {
	out := make([]int, len(proba))
	for i, p := range proba {
		out[i] = ArgMax(p)
	}
	return out
}

// ArgMax returns the index of the largest value (first on ties).
func ArgMax(p []float64) int {
	best := 0
	for i := 1; i < len(p); i++ {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

// Accuracy returns the fraction of matching labels.
func Accuracy(pred, truth []int) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	hit := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred))
}

// ErrorRate is 1 - Accuracy — the measure reported throughout the paper.
func ErrorRate(pred, truth []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	return 1 - Accuracy(pred, truth)
}

// LogLoss returns the mean cross entropy −log P(ŷ|y) (equation 5 of the
// paper) of predicted probability vectors against true labels, with
// probabilities clipped away from 0 and 1 for numerical stability.
func LogLoss(proba [][]float64, truth []int) float64 {
	const eps = 1e-15
	if len(proba) == 0 || len(proba) != len(truth) {
		return math.Inf(1)
	}
	total := 0.0
	for i, p := range proba {
		c := truth[i]
		if c < 0 || c >= len(p) {
			return math.Inf(1)
		}
		v := p[c]
		if v < eps {
			v = eps
		}
		if v > 1-eps {
			v = 1 - eps
		}
		total += -math.Log(v)
	}
	return total / float64(len(proba))
}

// NumClasses returns 1 + max(y), the label-count convention used when a
// caller does not track class counts separately.
func NumClasses(y []int) int {
	maxLabel := -1
	for _, v := range y {
		if v > maxLabel {
			maxLabel = v
		}
	}
	return maxLabel + 1
}

// ClassCounts tallies label frequencies into a slice of length classes.
func ClassCounts(y []int, classes int) []int {
	counts := make([]int, classes)
	for _, v := range y {
		if v >= 0 && v < classes {
			counts[v]++
		}
	}
	return counts
}

// Uniform returns the uniform probability vector of length k.
func Uniform(k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		p[i] = 1 / float64(k)
	}
	return p
}

// Normalize scales a non-negative vector to sum to one in place, falling
// back to uniform when the sum is not positive, and returns it.
func Normalize(p []float64) []float64 {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		copy(p, Uniform(len(p)))
		return p
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}
