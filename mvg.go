// Package mvg is a time series classification library built on multiscale
// visibility graphs, reproducing "Extracting Statistical Graph Features for
// Accurate and Efficient Time Series Classification" (Li et al., EDBT
// 2018).
//
// The pipeline transforms each time series into a pyramid of PAA
// approximations, converts every scale into a natural visibility graph and
// a horizontal visibility graph, and extracts purely statistical features
// from each graph: the probability distribution of all graphlets of size
// ≤ 4, density, degree assortativity, the k-core number and degree
// statistics. The unordered feature vector is then classified by a generic
// model — gradient-boosted trees by default, with random forest, SVM, and
// a stacked ensemble of all three families available.
//
// Quickstart:
//
//	pipe, err := mvg.NewPipeline(mvg.Config{})
//	if err != nil { ... }
//	defer pipe.Close()
//	model, err := pipe.Train(ctx, trainSeries, trainLabels, classes)
//	if err != nil { ... }
//	pred, err := model.PredictBatch(ctx, testSeries)
//
// A Pipeline is built once — Config validated eagerly, feature extractor
// compiled, worker pool spawned — and reused for every batch; its
// per-worker scratch buffers survive across calls, which is what makes
// small batches cheap. All batch methods take a context.Context with
// cooperative cancellation, and failures are typed (ErrBadConfig,
// ErrSeriesTooShort, ErrShapeMismatch, usable with errors.Is/As). The
// concurrency model is documented in docs/concurrency.md, the feature
// layout in docs/features.md, and the migration guide from the removed
// one-shot free functions in docs/api.md.
//
// Lower-level building blocks (graph construction, motif counting, feature
// extraction) are exposed through Pipeline.Extract, SummarizeVG and
// SummarizeHVG for exploratory analysis.
package mvg

import (
	"mvg/internal/core"
)

// Config selects the representation and classifier. The zero value is the
// paper's recommended configuration: MVG scales, VG+HVG graphs, all
// features, XGBoost with a quick hyper-parameter grid.
type Config struct {
	// Scale is the multiscale mode: "mvg" (default), "uvg", or "amvg".
	Scale string
	// Graphs selects the transforms per scale: "both" (default), "vg", or
	// "hvg".
	Graphs string
	// Features selects per-graph statistics: "all" (default) or "mpds".
	Features string
	// Tau is the minimum multiscale approximation length (0 = the paper's
	// default of 15, negative = no threshold).
	Tau int
	// Extended adds the paper's future-work graph features (degree
	// entropy, transitivity) to every graph block.
	Extended bool

	// NoDetrend disables removal of the least-squares linear trend before
	// graph construction, and NoZNormalize disables z-normalization.
	// Visibility-graph structure is invariant under both transforms (they
	// are affine plus a linear trend, which neither visibility criterion
	// can see), so for the graph-statistical features this library
	// extracts they only matter at the floating-point margin. Streaming
	// pipelines set both: with window-relative preprocessing off, the
	// sliding-window engine can maintain the T0 graphs incrementally and
	// stay bit-identical to batch extraction (see docs/streaming.md).
	NoDetrend    bool
	NoZNormalize bool

	// Classifier is "xgb" (default), "rf", "svm", or "stack" (stacked
	// generalization over all three families, Algorithm 2).
	Classifier string
	// FullGrid switches hyper-parameter search from the quick grid to the
	// paper's full grid (slower).
	FullGrid bool
	// Folds is the stratified CV fold count for model selection
	// (default 3, as in the paper).
	Folds int
	// Oversample enables random oversampling of minority classes.
	Oversample bool
	// Seed makes training deterministic (default 0 is a valid seed).
	Seed int64

	// Workers caps the worker goroutines the batch engine fans feature
	// extraction and model-selection grid search across. Zero or negative
	// selects GOMAXPROCS (one worker per available CPU). Results are
	// byte-identical for every worker count — see docs/concurrency.md for
	// the determinism guarantee. On a Pipeline this is the initial value;
	// Pipeline.SetWorkers retunes it live.
	Workers int
}

func (c Config) scaleMode() (core.ScaleMode, error) {
	switch c.Scale {
	case "", "mvg":
		return core.FullMultiscale, nil
	case "uvg":
		return core.Uniscale, nil
	case "amvg":
		return core.ApproxMultiscale, nil
	}
	return 0, &ConfigError{Field: "Scale", Value: c.Scale, Want: `"mvg", "uvg" or "amvg"`}
}

func (c Config) graphMode() (core.GraphMode, error) {
	switch c.Graphs {
	case "", "both":
		return core.VGAndHVG, nil
	case "vg":
		return core.VGOnly, nil
	case "hvg":
		return core.HVGOnly, nil
	}
	return 0, &ConfigError{Field: "Graphs", Value: c.Graphs, Want: `"both", "vg" or "hvg"`}
}

func (c Config) featureMode() (core.FeatureMode, error) {
	switch c.Features {
	case "", "all":
		return core.AllFeatures, nil
	case "mpds":
		return core.MPDsOnly, nil
	}
	return 0, &ConfigError{Field: "Features", Value: c.Features, Want: `"all" or "mpds"`}
}

// validateClassifier rejects unknown classifier families eagerly, so
// NewPipeline fails at construction rather than deep inside Train. It is
// the single public whitelist; the dispatch switch in fitClassifier must
// cover exactly these names (its default arm reports an internal
// inconsistency, not a config error, so drift between the two is loud).
func (c Config) validateClassifier() error {
	switch c.Classifier {
	case "", "xgb", "rf", "svm", "stack":
		return nil
	}
	return &ConfigError{Field: "Classifier", Value: c.Classifier, Want: `"xgb", "rf", "svm" or "stack"`}
}

func (c Config) extractor() (*core.Extractor, error) {
	s, err := c.scaleMode()
	if err != nil {
		return nil, err
	}
	g, err := c.graphMode()
	if err != nil {
		return nil, err
	}
	f, err := c.featureMode()
	if err != nil {
		return nil, err
	}
	return core.NewExtractor(core.Options{
		Scales: s, Graphs: g, Features: f, Tau: c.Tau, Extended: c.Extended,
		NoDetrend: c.NoDetrend, NoZNormalize: c.NoZNormalize,
	})
}
