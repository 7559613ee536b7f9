package mvg

import (
	"context"
	"fmt"
	"sort"

	"mvg/internal/grids"
	"mvg/internal/ml"
	"mvg/internal/ml/modelsel"
	"mvg/internal/ml/stack"
	"mvg/internal/ml/xgb"
	"mvg/internal/parallel"
)

// Model is a trained MVG classifier: a tuned generic classifier (and, for
// SVM-based configurations, the feature scaler learned on the training
// set) bound to the Pipeline that extracted its features. Predictions run
// on that pipeline's persistent worker pool, so a model served in a hot
// loop keeps its extraction scratch warm across requests.
//
// All trained state is immutable, so a Model is safe for concurrent use.
// The worker cap lives on the pipeline and may be retuned with SetWorkers
// while predictions are in flight.
type Model struct {
	pipe      *Pipeline
	scaler    *ml.MinMaxScaler // non-nil when the classifier needs scaling
	clf       ml.Classifier
	classes   int
	names     []string
	seriesLen int
	drift     driftBaseline // per-class feature centroids captured at Train time
}

// fitClassifier tunes and fits the configured classifier family on a
// feature matrix using the given executor for grid-search fan-out,
// returning the trained model and, for scale-sensitive configurations, the
// fitted scaler.
func fitClassifier(ctx context.Context, run parallel.Runner, X [][]float64, labels []int, classes int, cfg Config) (ml.Classifier, *ml.MinMaxScaler, error) {
	size := grids.Quick
	if cfg.FullGrid {
		size = grids.Full
	}
	folds := cfg.Folds
	if folds < 2 {
		folds = 3
	}
	switch cfg.Classifier {
	case "", "xgb":
		clf, _, err := modelsel.Best(ctx, run, grids.XGB(size, cfg.Seed), X, labels, classes, folds, cfg.Oversample, cfg.Seed)
		return clf, nil, err
	case "rf":
		clf, _, err := modelsel.Best(ctx, run, grids.RF(size, cfg.Seed), X, labels, classes, folds, cfg.Oversample, cfg.Seed)
		return clf, nil, err
	case "svm":
		scaler := &ml.MinMaxScaler{}
		scaled, err := scaler.FitTransform(X)
		if err != nil {
			return nil, nil, err
		}
		clf, _, err := modelsel.Best(ctx, run, grids.SVM(size, cfg.Seed), scaled, labels, classes, folds, cfg.Oversample, cfg.Seed)
		return clf, scaler, err
	case "stack":
		// Stacking scales features once for everyone; tree models are
		// insensitive to monotone scaling (Section 4.3), so a shared
		// min-max transform is safe and keeps the SVM family happy.
		scaler := &ml.MinMaxScaler{}
		scaled, err := scaler.FitTransform(X)
		if err != nil {
			return nil, nil, err
		}
		ens := stack.New(stack.Params{
			TopK:       5,
			Folds:      folds,
			Oversample: cfg.Oversample,
			Seed:       cfg.Seed,
		},
			stack.Family{Name: "xgb", Candidates: grids.XGB(size, cfg.Seed)},
			stack.Family{Name: "rf", Candidates: grids.RF(size, cfg.Seed)},
			stack.Family{Name: "svm", Candidates: grids.SVM(size, cfg.Seed)},
		)
		if err := ens.FitContext(ctx, run, scaled, labels, classes); err != nil {
			return nil, nil, err
		}
		return ens, scaler, nil
	}
	// Unreachable through the public API: Config.validateClassifier gates
	// every path into here. Hitting this means a family was whitelisted
	// without a dispatch arm.
	return nil, nil, fmt.Errorf("mvg: internal: classifier %q passed validation but has no dispatch arm", cfg.Classifier)
}

// features extracts inference features on the model's pipeline, after
// validating every series against the training length.
func (m *Model) features(ctx context.Context, series [][]float64) ([][]float64, error) {
	for i, s := range series {
		if len(s) != m.seriesLen {
			return nil, &ShapeError{What: fmt.Sprintf("series %d length", i), Got: len(s), Want: m.seriesLen}
		}
	}
	return m.pipe.Extract(ctx, series)
}

// classifyFeatures is the single scale-then-classify tail shared by every
// prediction path — batch (PredictProba) and streaming (Stream.Predict) —
// so the two can never drift: it applies the fitted scaler when the
// classifier needs one and returns the class-probability rows.
func (m *Model) classifyFeatures(X [][]float64) ([][]float64, error) {
	if m.scaler != nil {
		var err error
		X, err = m.scaler.Transform(X)
		if err != nil {
			return nil, err
		}
	}
	return m.clf.PredictProba(X)
}

// PredictProba returns one class-probability vector per series, fanning
// feature extraction across the pipeline's worker pool (0 = GOMAXPROCS)
// with per-worker scratch reuse. Row i always corresponds to series[i] and
// the probabilities are byte-identical for every worker count
// (docs/concurrency.md). The context is checked between per-series jobs; a
// cancelled call returns ctx.Err() promptly. A series whose length differs
// from the training length returns a *ShapeError before any extraction
// runs.
func (m *Model) PredictProba(ctx context.Context, series [][]float64) ([][]float64, error) {
	X, err := m.features(ctx, series)
	if err != nil {
		return nil, err
	}
	return m.classifyFeatures(X)
}

// PredictBatch classifies a batch of series on the model's pipeline and
// returns the most probable class per series, in input order. See
// PredictProba for the concurrency, cancellation and determinism
// guarantees.
func (m *Model) PredictBatch(ctx context.Context, series [][]float64) ([]int, error) {
	proba, err := m.PredictProba(ctx, series)
	if err != nil {
		return nil, err
	}
	return ml.Predict(proba), nil
}

// Predict returns the most probable class per series. It is an alias for
// PredictBatch kept for single-call readability.
func (m *Model) Predict(ctx context.Context, series [][]float64) ([]int, error) {
	return m.PredictBatch(ctx, series)
}

// ErrorRate scores the model on a labelled test set (the paper's metric).
func (m *Model) ErrorRate(ctx context.Context, series [][]float64, labels []int) (float64, error) {
	pred, err := m.Predict(ctx, series)
	if err != nil {
		return 0, err
	}
	if len(pred) != len(labels) {
		return 0, &ShapeError{What: "labels", Got: len(labels), Want: len(pred)}
	}
	return ml.ErrorRate(pred, labels), nil
}

// Pipeline returns the pipeline the model predicts on — the one that
// trained it (Pipeline.Train), or the dedicated pipeline LoadModel or
// FeatureStore.Train builds. Closing it invalidates the model.
func (m *Model) Pipeline() *Pipeline { return m.pipe }

// Classes returns the number of classes the model was trained with.
func (m *Model) Classes() int { return m.classes }

// SeriesLen returns the series length the model was trained on. Inputs to
// PredictBatch and PredictProba must have this length.
func (m *Model) SeriesLen() int { return m.seriesLen }

// SetWorkers retunes the worker-goroutine cap used by PredictBatch and
// PredictProba (0 = GOMAXPROCS). Predictions are byte-identical for every
// worker count, so this only affects throughput — the knob exists so a
// model trained (or loaded) on one machine can match the parallelism of
// the machine it serves on. It is safe to call while predictions are in
// flight: in-flight batches keep the count they started with, later
// batches pick up the new value. It delegates to the model's pipeline, so
// models sharing a pipeline share the cap.
func (m *Model) SetWorkers(workers int) { m.pipe.SetWorkers(workers) }

// Workers reports the current worker-goroutine cap (0 = GOMAXPROCS).
func (m *Model) Workers() int { return m.pipe.Workers() }

// FeatureNames returns the names of the extracted features in order
// (e.g. "T0.HVG.P(M44)"; the layout is specified in docs/features.md).
func (m *Model) FeatureNames() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}

// FeatureWeight pairs a feature name with its importance.
type FeatureWeight struct {
	Name   string
	Weight float64
}

// FeatureImportance returns gain-based feature importances sorted by
// descending weight (the paper's Figure 10 case study). It is only
// available for the "xgb" classifier.
func (m *Model) FeatureImportance() ([]FeatureWeight, error) {
	booster, ok := m.clf.(*xgb.Model)
	if !ok {
		return nil, fmt.Errorf("mvg: feature importance requires the xgb classifier (have %T)", m.clf)
	}
	imp := booster.FeatureImportance()
	if len(imp) != len(m.names) {
		return nil, fmt.Errorf("mvg: importance width %d != %d features", len(imp), len(m.names))
	}
	out := make([]FeatureWeight, len(imp))
	for i, w := range imp {
		out[i] = FeatureWeight{Name: m.names[i], Weight: w}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out, nil
}
