package xgb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"mvg/internal/ml/mltest"
	"mvg/internal/ml/modelsel"
)

// The golden-model test pins the SHA-256 of MarshalBinary for a corpus of
// fits chosen to stress what a split-finder rewrite can silently change:
// features quantized to a few levels (long runs of tied values, where the
// sort's tie order decides which rows sum first), rows duplicated the way
// modelsel.Oversample duplicates them, depths 3, 6 and 20, row and column
// subsampling at 0.5 and 1, and 2 to 4 classes. A rewrite must reproduce
// every fit bit for bit. Regenerate only when the corpus itself changes,
// never to absorb a training difference:
//
//	go test ./internal/ml/xgb -run TestGoldenModels -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_models.json from current output")

// goldenCase is one fit of the corpus.
type goldenCase struct {
	name    string
	X       [][]float64
	y       []int
	classes int
	p       Params
}

// quantize rounds every feature to a multiple of step, in place.
func quantize(X [][]float64, step float64) [][]float64 {
	for _, row := range X {
		for j, v := range row {
			row[j] = step * math.Round(v/step)
		}
	}
	return X
}

// skew keeps every row of class 0 and every third row of the others, so
// Oversample has minority rows to duplicate.
func skew(X [][]float64, y []int) ([][]float64, []int) {
	var outX [][]float64
	var outY []int
	for i := range X {
		if y[i] == 0 || i%3 == 0 {
			outX = append(outX, X[i])
			outY = append(outY, y[i])
		}
	}
	return outX, outY
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, X [][]float64, y []int, classes int, p Params) {
		cases = append(cases, goldenCase{name, X, y, classes, p})
	}
	half := Params{Subsample: 0.5, ColsampleByTree: 0.5}
	withDepth := func(p Params, depth, rounds int, seed int64) Params {
		p.MaxDepth, p.NumRounds, p.Seed = depth, rounds, seed
		return p
	}

	// Few-level features: most adjacent sorted values tie.
	X, y := mltest.Blobs(60, 2, 12, 1.2, 1)
	add("ties/c2/d3/full", quantize(X, 2), y, 2, withDepth(Params{}, 3, 20, 1))
	X, y = mltest.Blobs(72, 3, 16, 1.5, 2)
	add("ties/c3/d6/half", quantize(X, 1.5), y, 3, withDepth(half, 6, 25, 2))
	X, y = mltest.Blobs(80, 4, 10, 2, 3)
	add("ties/c4/d20/half", quantize(X, 3), y, 4, withDepth(half, 20, 15, 3))
	X, y = mltest.Blobs(64, 3, 20, 1, 4)
	add("binary/c3/d6/cols", quantize(X, 4), y, 3, withDepth(Params{ColsampleByTree: 0.5}, 6, 20, 4))

	// Oversampled rows: duplicates share one slice, as in grid search.
	X, y = skew(mltest.Blobs(90, 3, 12, 1.5, 5))
	X, y = modelsel.Oversample(X, y, 3, 5)
	add("oversampled/c3/d6/half", X, y, 3, withDepth(half, 6, 25, 5))
	X, y = skew(mltest.Blobs(90, 2, 8, 1.5, 6))
	X, y = modelsel.Oversample(quantize(X, 1), y, 2, 6)
	add("oversampled-ties/c2/d20/full", X, y, 2, withDepth(Params{}, 20, 15, 6))
	X, y = skew(mltest.Blobs(120, 4, 14, 2, 7))
	X, y = modelsel.Oversample(X, y, 4, 7)
	add("oversampled/c4/d3/rows", X, y, 4, withDepth(Params{Subsample: 0.5}, 3, 30, 7))

	// Continuous features: no ties, the reference case.
	X, y = mltest.Blobs(60, 2, 24, 1, 8)
	add("continuous/c2/d20/half", X, y, 2, withDepth(half, 20, 20, 8))
	X, y = mltest.Blobs(80, 4, 18, 1.5, 9)
	add("continuous/c4/d6/full", X, y, 4, withDepth(Params{LearningRate: 0.1}, 6, 20, 9))
	return cases
}

func TestGoldenModels(t *testing.T) {
	// math.Exp takes an FMA path on amd64 and other architectures fuse
	// multiply-adds themselves, so the pinned bits are amd64's.
	if runtime.GOARCH != "amd64" && !*updateGolden {
		t.Skip("golden model hashes are pinned on amd64")
	}
	path := filepath.Join("testdata", "golden_models.json")
	got := map[string]string{}
	for _, c := range goldenCases() {
		m := New(c.p)
		if err := m.Fit(c.X, c.y, c.classes); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(raw)
		got[c.name] = hex.EncodeToString(sum[:])
	}
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: model hash %s, pinned %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d models, corpus has %d", len(want), len(got))
	}
}
