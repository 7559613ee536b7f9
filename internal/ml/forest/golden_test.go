package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"mvg/internal/ml/mltest"
	"mvg/internal/ml/modelsel"
)

// quantize rounds every feature to a multiple of step, in place, so that
// most adjacent sorted values tie.
func quantize(X [][]float64, step float64) [][]float64 {
	for _, row := range X {
		for j, v := range row {
			row[j] = step * math.Round(v/step)
		}
	}
	return X
}

// oversampled keeps every row of class 0 and every third row of the
// others, then lets modelsel.Oversample duplicate the minority rows.
func oversampled(X [][]float64, y []int, classes int, seed int64) ([][]float64, []int) {
	var outX [][]float64
	var outY []int
	for i := range X {
		if y[i] == 0 || i%3 == 0 {
			outX = append(outX, X[i])
			outY = append(outY, y[i])
		}
	}
	return modelsel.Oversample(outX, outY, classes, seed)
}

// goldenFit is one pinned forest fit.
type goldenFit struct {
	name    string
	X       [][]float64
	y       []int
	classes int
	p       Params
	sha256  string
}

// goldenFits covers quantized ties, oversampled rows, MaxDepth 0
// (unlimited) and 10, and 2 to 4 classes.
func goldenFits() []goldenFit {
	ties := func(n, classes, width int, step float64, seed int64) ([][]float64, []int) {
		X, y := mltest.Blobs(n, classes, width, 1.5, seed)
		return quantize(X, step), y
	}
	X1, y1 := ties(60, 2, 8, 2, 1)
	X2, y2 := ties(90, 4, 10, 1.5, 2)
	X3, y3 := mltest.Blobs(120, 3, 12, 1.5, 3)
	X3, y3 = oversampled(X3, y3, 3, 3)
	X4, y4 := ties(120, 3, 6, 1, 4)
	X4, y4 = oversampled(X4, y4, 3, 4)
	return []goldenFit{
		{"ties/c2/d0", X1, y1, 2, Params{NumTrees: 15, Seed: 1}, "c56ed0eecaf7d0eb5949c3a7a97ce57d7818b093cd32cdd02ccd19a30504e654"},
		{"ties/c4/d10", X2, y2, 4, Params{NumTrees: 15, MaxDepth: 10, MinSamplesLeaf: 2, Seed: 2}, "9528f9af603b16320f201014904bfeb139d18507af0edfd245fc887404e0a8d6"},
		{"oversampled/c3/d10", X3, y3, 3, Params{NumTrees: 15, MaxDepth: 10, Seed: 3}, "e0e3e582a81d546e684b3fb067cebdc9cd5f3962f08f0cbce03856e7d78c5097"},
		{"oversampled-ties/c3/d0", X4, y4, 3, Params{NumTrees: 15, MaxFeatures: 3, Seed: 4}, "e88ac4d5ad8bc3c091cd04d14b486c981f8c13606a403ce94367522a59cd11c7"},
	}
}

// TestGoldenPredictions pins the SHA-256 of PredictProba's float64 bits,
// little-endian in row-major order, for each golden fit on a fixed matrix
// drawn like its training set. The CART split scan's sort decides which
// rows sum first where values tie, so a rewrite of it must reproduce
// these bits. The pins hold on amd64, where they were taken.
func TestGoldenPredictions(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden prediction hashes are pinned on amd64")
	}
	for k, c := range goldenFits() {
		f := New(c.p)
		if err := f.Fit(c.X, c.y, c.classes); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		testX, _ := mltest.Blobs(50, c.classes, len(c.X[0]), 1.5, int64(100+k))
		proba, err := f.PredictProba(testX)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.New()
		for _, row := range proba {
			for _, v := range row {
				sum.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != c.sha256 {
			t.Errorf("%s: prediction hash %s, pinned %s", c.name, got, c.sha256)
		}
	}
}
