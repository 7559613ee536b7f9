// Package forest implements a random forest classifier: bootstrap-bagged
// CART trees with per-node feature subsampling (Breiman 2001), one of the
// three generic classifier families the paper feeds MVG features into.
package forest

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mvg/internal/ml"
	"mvg/internal/ml/cart"
	"mvg/internal/parallel"
)

// Params configures the forest.
type Params struct {
	// NumTrees is the ensemble size (default 100).
	NumTrees int
	// MaxDepth limits individual trees; 0 means unlimited.
	MaxDepth int
	// MinSamplesLeaf per tree (default 1).
	MinSamplesLeaf int
	// MaxFeatures per node; 0 means √p (the standard default).
	MaxFeatures int
	// Seed drives bootstrapping and feature subsampling.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.NumTrees <= 0 {
		p.NumTrees = 100
	}
	return p
}

// Forest is a fitted random forest implementing ml.Classifier.
type Forest struct {
	P       Params
	trees   []*cart.Tree
	classes int
}

// New returns an untrained forest.
func New(p Params) *Forest { return &Forest{P: p} }

// Clone returns a fresh untrained forest with identical parameters.
func (f *Forest) Clone() ml.Classifier { return &Forest{P: f.P} }

// Name implements ml.Named.
func (f *Forest) Name() string {
	p := f.P.withDefaults()
	return fmt.Sprintf("rf(trees=%d,depth=%d)", p.NumTrees, p.MaxDepth)
}

// Fit trains NumTrees trees on bootstrap resamples in parallel.
func (f *Forest) Fit(X [][]float64, y []int, classes int) error {
	if err := ml.CheckTrainingSet(X, y, classes); err != nil {
		return err
	}
	p := f.P.withDefaults()
	maxFeatures := p.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = int(math.Sqrt(float64(len(X[0]))))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}
	f.classes = classes
	f.trees = make([]*cart.Tree, p.NumTrees)

	// Pre-draw independent seeds so the result is deterministic regardless
	// of goroutine scheduling.
	seedRng := rand.New(rand.NewSource(p.Seed))
	seeds := make([]int64, p.NumTrees)
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}

	// The trees fan out on a pool that lives for this call. Every job reads
	// only its own seed and writes only its own slot, so the forest does
	// not depend on the worker count.
	pool := parallel.NewPool(func() struct{} { return struct{}{} })
	defer pool.Close()
	return pool.ForEach(context.TODO(), 0, p.NumTrees, func(_ struct{}, t int) error {
		rng := rand.New(rand.NewSource(seeds[t]))
		bx := make([][]float64, len(X))
		by := make([]int, len(y))
		for i := range bx {
			j := rng.Intn(len(X))
			bx[i] = X[j]
			by[i] = y[j]
		}
		tree := cart.New(cart.Params{
			MaxDepth:       p.MaxDepth,
			MinSamplesLeaf: p.MinSamplesLeaf,
			MaxFeatures:    maxFeatures,
			Seed:           rng.Int63(),
		})
		if err := tree.Fit(bx, by, classes); err != nil {
			return err
		}
		f.trees[t] = tree
		return nil
	})
}

// PredictProba averages the leaf distributions of all trees.
func (f *Forest) PredictProba(X [][]float64) ([][]float64, error) {
	if f.trees == nil {
		return nil, ml.ErrNotFitted
	}
	out := make([][]float64, len(X))
	for i := range out {
		out[i] = make([]float64, f.classes)
	}
	for _, tree := range f.trees {
		probs, err := tree.PredictProba(X)
		if err != nil {
			return nil, err
		}
		for i, p := range probs {
			for c, v := range p {
				out[i][c] += v
			}
		}
	}
	for i := range out {
		ml.Normalize(out[i])
	}
	return out, nil
}
