package experiments

import (
	"testing"

	"mvg/internal/baselines/fastshapelets"
	"mvg/internal/baselines/saxvsm"
	"mvg/internal/ml"
)

// TestBaselineRefitsIdentical: fitting Fast Shapelets or SAX-VSM again on
// the same quick-suite data gives bit-identical test probabilities. Both
// used to depend on map iteration order: Fast Shapelets in which of two
// equally scored SAX words it evaluated first, SAX-VSM in the order it
// summed its norms and dot products.
func TestBaselineRefitsIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		new      func() ml.Classifier
		datasets []string
		fits     int
	}{
		{"FS", func() ml.Classifier { return fastshapelets.New(fastshapelets.Params{Seed: 1}) }, []string{"WarpedShapes"}, 10},
		{"SAX-VSM", func() ml.Classifier { return saxvsm.New(saxvsm.Params{}) }, []string{"WarpedShapes", "WalkTails"}, 4},
	} {
		runs, err := Config{Seed: 1, Quick: true, Datasets: tc.datasets}.LoadSuite()
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range runs {
			t.Run(tc.name+"/"+run.Family.Name, func(t *testing.T) {
				var first [][]float64
				for fit := 0; fit < tc.fits; fit++ {
					clf := tc.new()
					if err := clf.Fit(run.Train.Series, run.Train.Labels, run.Train.Classes()); err != nil {
						t.Fatal(err)
					}
					proba, err := clf.PredictProba(run.Test.Series)
					if err != nil {
						t.Fatal(err)
					}
					if fit == 0 {
						first = proba
						continue
					}
					for i := range proba {
						for c := range proba[i] {
							if proba[i][c] != first[i][c] {
								t.Fatalf("refit %d gives P[%d][%d] = %v, first fit %v",
									fit, i, c, proba[i][c], first[i][c])
							}
						}
					}
				}
			})
		}
	}
}
