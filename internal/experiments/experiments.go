// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section 4) on the synthetic dataset suite, printing
// the same rows and series the paper reports: Table 2 (heuristic
// ablation), Table 3 (accuracy and runtime against five baselines),
// Figure 2 (motif distributions), Figures 3–5 (representation scatter
// comparisons), Figures 6–7 (critical difference diagrams), Figures 8–9
// (baseline scatter and runtime comparisons) and Figure 10 (feature
// importance case study). Experiments lists the ids Run accepts, which
// are the ids cmd/mvgbench's -exp flag takes; README.md ("Tools") shows
// how to run them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"mvg/internal/core"
	"mvg/internal/grids"
	"mvg/internal/ml"
	"mvg/internal/ml/knn"
	"mvg/internal/ml/modelsel"
	"mvg/internal/synth"
	"mvg/internal/ucr"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the rendered report.
	Out io.Writer
	// Seed drives dataset generation and every stochastic component.
	Seed int64
	// Quick truncates datasets and shrinks hyper-parameter grids so the
	// full suite completes in minutes; the full mode mirrors the paper's
	// scale on this machine.
	Quick bool
	// Datasets filters the suite by name; empty means all 13 families.
	Datasets []string
	// Repeats averages accuracy over this many repetitions (the paper
	// repeats five times); 0 means 1.
	Repeats int
}

func (c Config) gridSize() grids.Size {
	if c.Quick {
		return grids.Quick
	}
	return grids.Full
}

func (c Config) repeats() int {
	if c.Repeats <= 0 {
		return 1
	}
	return c.Repeats
}

// DatasetRun is one loaded dataset with its generator metadata.
type DatasetRun struct {
	Family synth.Family
	Train  *ucr.Dataset
	Test   *ucr.Dataset
}

// LoadSuite materializes the configured datasets.
func (c Config) LoadSuite() ([]DatasetRun, error) {
	fams := synth.Suite()
	if len(c.Datasets) > 0 {
		var filtered []synth.Family
		for _, name := range c.Datasets {
			f, err := synth.ByName(name)
			if err != nil {
				return nil, err
			}
			filtered = append(filtered, f)
		}
		fams = filtered
	}
	out := make([]DatasetRun, 0, len(fams))
	for _, f := range fams {
		train, test := f.Generate(c.Seed)
		if c.Quick {
			truncate(train, 36, f.Classes, c.Seed)
			truncate(test, 60, f.Classes, c.Seed)
		}
		out = append(out, DatasetRun{Family: f, Train: train, Test: test})
	}
	return out, nil
}

// truncate stratified-downsamples a dataset in place to at most n rows.
func truncate(d *ucr.Dataset, n, classes int, seed int64) {
	if d.Len() <= n {
		return
	}
	rng := rand.New(rand.NewSource(seed ^ int64(d.Len())))
	byClass := make([][]int, classes)
	for i, label := range d.Labels {
		byClass[label] = append(byClass[label], i)
	}
	var keep []int
	for _, idx := range byClass {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		quota := n * len(idx) / d.Len()
		if quota < 1 {
			quota = 1
		}
		if quota > len(idx) {
			quota = len(idx)
		}
		keep = append(keep, idx[:quota]...)
	}
	series := make([][]float64, 0, len(keep))
	labels := make([]int, 0, len(keep))
	for _, i := range keep {
		series = append(series, d.Series[i])
		labels = append(labels, d.Labels[i])
	}
	d.Series = series
	d.Labels = labels
}

// evalRepresentation extracts features under the given options, tunes an
// XGBoost classifier with stratified CV grid search (the paper's heuristic
// validation protocol), and returns the test error rate averaged over the
// configured repeats.
func (c Config) evalRepresentation(run DatasetRun, opts core.Options) (float64, error) {
	e, err := core.NewExtractor(opts)
	if err != nil {
		return 0, err
	}
	trainX, err := e.ExtractDataset(run.Train.Series)
	if err != nil {
		return 0, fmt.Errorf("%s train: %w", run.Family.Name, err)
	}
	testX, err := e.ExtractDataset(run.Test.Series)
	if err != nil {
		return 0, fmt.Errorf("%s test: %w", run.Family.Name, err)
	}
	classes := run.Train.Classes()
	total := 0.0
	for rep := 0; rep < c.repeats(); rep++ {
		seed := c.Seed + int64(rep)*101
		model, _, err := modelsel.Best(context.Background(), nil, grids.XGB(c.gridSize(), seed),
			trainX, run.Train.Labels, classes, 3, run.Family.Imbalanced, seed)
		if err != nil {
			return 0, err
		}
		proba, err := model.PredictProba(testX)
		if err != nil {
			return 0, err
		}
		total += ml.ErrorRate(ml.Predict(proba), run.Test.Labels)
	}
	return total / float64(c.repeats()), nil
}

// evalSeriesClassifier trains any raw-series classifier and returns (test
// error rate, train seconds, test seconds).
func evalSeriesClassifier(clf ml.Classifier, run DatasetRun) (float64, float64, float64, error) {
	t0 := time.Now()
	if err := clf.Fit(run.Train.Series, run.Train.Labels, run.Train.Classes()); err != nil {
		return 0, 0, 0, err
	}
	trainSec := time.Since(t0).Seconds()
	t1 := time.Now()
	proba, err := clf.PredictProba(run.Test.Series)
	if err != nil {
		return 0, 0, 0, err
	}
	testSec := time.Since(t1).Seconds()
	return ml.ErrorRate(ml.Predict(proba), run.Test.Labels), trainSec, testSec, nil
}

// nn1ED and nn1DTW build the paper's distance baselines.
func nn1ED() ml.Classifier { return knn.NewSeriesED() }

// nn1DTW uses an unconstrained warp in full mode and a 10% window in quick
// mode (the common UCR default), trading a little fidelity for speed.
func (c Config) nn1DTW(seriesLen int) ml.Classifier {
	if c.Quick {
		w := seriesLen / 10
		if w < 1 {
			w = 1
		}
		return knn.NewSeriesDTW(w)
	}
	return knn.NewSeriesDTW(-1)
}

// Runner caches expensive experiment computations so that figure
// experiments can reuse table data within one invocation.
type Runner struct {
	Cfg    Config
	table2 *Table2Data
	table3 *Table3Data
}

// NewRunner returns a Runner over the given configuration.
func NewRunner(cfg Config) *Runner { return &Runner{Cfg: cfg} }

// Experiments lists the runnable experiment ids in paper order, followed by
// the engine experiments this reproduction adds ("throughput" extends the
// paper's §4.5 efficiency study to the parallel batch executor).
var Experiments = []string{
	"fig2", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"table3", "fig8", "fig9", "fig10", "throughput", "stream",
}

// Run dispatches one experiment by id and writes its report to cfg.Out.
func (r *Runner) Run(name string) error {
	switch name {
	case "table2":
		return r.RunTable2()
	case "table3":
		return r.RunTable3()
	case "fig2":
		return r.RunFigure2()
	case "fig3":
		return r.RunFigure3()
	case "fig4":
		return r.RunFigure4()
	case "fig5":
		return r.RunFigure5()
	case "fig6":
		return r.RunFigure6()
	case "fig7":
		return r.RunFigure7()
	case "fig8":
		return r.RunFigure8()
	case "fig9":
		return r.RunFigure9()
	case "fig10":
		return r.RunFigure10()
	case "throughput":
		return r.RunThroughput()
	case "stream":
		return r.RunStream()
	case "extras":
		return r.RunExtras()
	case "all":
		for _, id := range Experiments {
			if err := r.Run(id); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	return fmt.Errorf("experiments: unknown experiment %q (want one of %v, extras, or all)", name, Experiments)
}
