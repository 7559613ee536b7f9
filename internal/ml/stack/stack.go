// Package stack implements stacked generalization (Wolpert 1992) following
// Algorithm 2 of the paper: candidate base classifiers are scored with
// stratified cross validation by cross entropy, the top-k per family are
// kept, and a logistic-regression meta-learner combines their out-of-fold
// probability predictions into the final ensemble.
package stack

import (
	"context"
	"fmt"
	"sort"

	"mvg/internal/ml"
	"mvg/internal/ml/linear"
	"mvg/internal/ml/modelsel"
	"mvg/internal/parallel"
)

// Family is a named pool of candidate configurations (e.g. every XGBoost
// hyper-parameter combination from the grid).
type Family struct {
	Name       string
	Candidates []ml.Classifier
}

// Params configures ensemble construction.
type Params struct {
	// TopK is the number of estimators kept per family (default 5, as in
	// Section 4.3).
	TopK int
	// Folds is the stratified CV fold count (default 3).
	Folds int
	// Oversample enables random oversampling of minority classes inside
	// every training split.
	Oversample bool
	// Seed drives fold assignment and oversampling.
	Seed int64
	// MetaL2 is the meta-learner's ridge penalty (default 1e-3).
	MetaL2 float64
}

func (p Params) withDefaults() Params {
	if p.TopK <= 0 {
		p.TopK = 5
	}
	if p.Folds < 2 {
		p.Folds = 3
	}
	if p.MetaL2 <= 0 {
		p.MetaL2 = 1e-3
	}
	return p
}

// Member records one selected base estimator.
type Member struct {
	Family  string
	CVScore float64 // cross-validation log loss
	model   ml.Classifier
}

// Ensemble is a fitted stacking ensemble implementing ml.Classifier.
type Ensemble struct {
	P        Params
	families []Family
	members  []Member
	meta     *linear.Model
	classes  int
}

// New returns an untrained ensemble over the given families.
func New(p Params, families ...Family) *Ensemble {
	return &Ensemble{P: p, families: families}
}

// Clone returns a fresh untrained ensemble with the same families; the
// base candidates themselves are cloned so no training state leaks.
func (e *Ensemble) Clone() ml.Classifier {
	fams := make([]Family, len(e.families))
	for i, f := range e.families {
		cands := make([]ml.Classifier, len(f.Candidates))
		for j, c := range f.Candidates {
			cands[j] = c.Clone()
		}
		fams[i] = Family{Name: f.Name, Candidates: cands}
	}
	return New(e.P, fams...)
}

// Name implements ml.Named.
func (e *Ensemble) Name() string {
	names := make([]string, len(e.families))
	for i, f := range e.families {
		names[i] = f.Name
	}
	return fmt.Sprintf("stack(%v,top%d)", names, e.P.withDefaults().TopK)
}

// Members lists the selected base estimators of a fitted ensemble.
func (e *Ensemble) Members() []Member { return e.members }

// Fit implements Algorithm 2:
//  1. score every candidate of every family with stratified k-fold CV on
//     cross entropy (lines 4–10),
//  2. keep the top-k per family (lines 11–12),
//  3. compute combination weights with a logistic-regression meta-learner
//     trained on out-of-fold base predictions (line 13),
//  4. refit every selected base estimator on the full training set.
//
// Fit satisfies ml.Classifier by running FitContext with no cancellation
// and no executor, so each family's grid search runs on a pool of
// GOMAXPROCS workers that lives for that search.
func (e *Ensemble) Fit(X [][]float64, y []int, classes int) error {
	return e.FitContext(context.TODO(), nil, X, y, classes)
}

// FitContext is Fit with cooperative cancellation and an explicit
// grid-search executor — mvg.Pipeline hands in its persistent pool here;
// a nil run gives each grid search a pool of its own (modelsel.GridSearch).
// The context is checked between grid-search jobs, folds and member
// refits; a cancelled fit returns ctx.Err().
func (e *Ensemble) FitContext(ctx context.Context, run parallel.Runner, X [][]float64, y []int, classes int) error {
	if err := ml.CheckTrainingSet(X, y, classes); err != nil {
		return err
	}
	if len(e.families) == 0 {
		return fmt.Errorf("stack: no families configured")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := e.P.withDefaults()
	e.P = p
	e.classes = classes
	e.members = e.members[:0]

	// 1–2: select top-k candidates per family by CV log loss.
	for _, fam := range e.families {
		results, err := modelsel.GridSearch(ctx, run, fam.Candidates, X, y, classes, p.Folds, p.Oversample, p.Seed)
		if err != nil {
			return fmt.Errorf("stack: family %s: %w", fam.Name, err)
		}
		k := p.TopK
		if k > len(results) {
			k = len(results)
		}
		for _, r := range results[:k] {
			e.members = append(e.members, Member{
				Family:  fam.Name,
				CVScore: r.LogLoss,
				model:   r.Candidate, // untrained configuration; refit below
			})
		}
	}
	sort.SliceStable(e.members, func(i, j int) bool { return e.members[i].CVScore < e.members[j].CVScore })

	// 3: build out-of-fold meta-features: for every member, its predicted
	// probability vector on each held-out sample.
	folds, err := modelsel.StratifiedKFolds(y, p.Folds, p.Seed)
	if err != nil {
		return err
	}
	metaX := make([][]float64, len(X))
	for i := range metaX {
		metaX[i] = make([]float64, len(e.members)*classes)
	}
	for hold := range folds {
		if err := ctx.Err(); err != nil {
			return err
		}
		trX, trY, _, _ := modelsel.Split(X, y, folds, hold)
		if p.Oversample {
			trX, trY = modelsel.Oversample(trX, trY, classes, p.Seed+int64(hold))
		}
		holdIdx := folds[hold]
		vaX := make([][]float64, len(holdIdx))
		for k, i := range holdIdx {
			vaX[k] = X[i]
		}
		for mi, member := range e.members {
			model := member.model.Clone()
			if err := model.Fit(trX, trY, classes); err != nil {
				return fmt.Errorf("stack: member %d fold %d: %w", mi, hold, err)
			}
			proba, err := model.PredictProba(vaX)
			if err != nil {
				return err
			}
			for k, i := range holdIdx {
				copy(metaX[i][mi*classes:(mi+1)*classes], proba[k])
			}
		}
	}
	e.meta = linear.New(linear.Params{L2: p.MetaL2, MaxIter: 300})
	if err := e.meta.Fit(metaX, y, classes); err != nil {
		return fmt.Errorf("stack: meta-learner: %w", err)
	}

	// 4: refit members on the full training set.
	trX, trY := X, y
	if p.Oversample {
		trX, trY = modelsel.Oversample(X, y, classes, p.Seed)
	}
	for mi := range e.members {
		if err := ctx.Err(); err != nil {
			return err
		}
		model := e.members[mi].model.Clone()
		if err := model.Fit(trX, trY, classes); err != nil {
			return fmt.Errorf("stack: refit member %d: %w", mi, err)
		}
		e.members[mi].model = model
	}
	return nil
}

// PredictProba feeds base-estimator probabilities through the meta-learner.
func (e *Ensemble) PredictProba(X [][]float64) ([][]float64, error) {
	if e.meta == nil {
		return nil, ml.ErrNotFitted
	}
	metaX := make([][]float64, len(X))
	for i := range metaX {
		metaX[i] = make([]float64, len(e.members)*e.classes)
	}
	for mi, member := range e.members {
		proba, err := member.model.PredictProba(X)
		if err != nil {
			return nil, err
		}
		for i := range X {
			copy(metaX[i][mi*e.classes:(mi+1)*e.classes], proba[i])
		}
	}
	return e.meta.PredictProba(metaX)
}
