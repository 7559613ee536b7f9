package xgb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
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
// subsampling at 0.5 and 1, and 2 to 5 classes; nodes on both sides of
// pdqsort's insertion-sort cutoff (12 rows), signed zeros, which tie under
// <, constant and all-distinct columns; MinChildWeight 0.5 and 3, and a
// confident fit whose trees shrink to one leaf, where the split scan's
// exits fall; and two random corpora hashed as one each, about a
// thousand small fits and 300 fits of 10–60 rounds. A rewrite must
// reproduce every fit bit for bit. Regenerate only when the corpus
// itself changes, never to absorb a training difference:
//
//	go test ./internal/ml/xgb -run TestGoldenModels -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_models.json from current output")

// goldenFit is one fit: a training set and the booster's parameters.
type goldenFit struct {
	X       [][]float64
	y       []int
	classes int
	p       Params
}

// goldenCase is one entry of the corpus. Its hash is the SHA-256 of its
// fits' MarshalBinary bytes, concatenated in order.
type goldenCase struct {
	name string
	fits []goldenFit
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
		cases = append(cases, goldenCase{name, []goldenFit{{X, y, classes, p}}})
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

	// pdqsort insertion-sorts 12 rows or fewer and partitions more, so
	// these roots sit on either side of the cutoff. A low MinChildWeight
	// lets nodes this small split.
	for _, n := range []int{12, 13} {
		X, y = mltest.Blobs(n, 2, 6, 1.5, int64(n))
		add(fmt.Sprintf("cutoff/%d-rows/c2/d6", n), quantize(X, 2), y, 2,
			withDepth(Params{MinChildWeight: 0.05}, 6, 10, int64(n)))
	}

	// Column 0 takes -1, -0, +0 and 1, and the two zeros tie under <;
	// column 1 is constant; column 2 has no two values alike.
	X, y = mltest.Blobs(60, 3, 3, 1.5, 10)
	for i, row := range X {
		switch {
		case row[0] < -1:
			row[0] = -1
		case row[0] > 1:
			row[0] = 1
		case i%2 == 0:
			row[0] = math.Copysign(0, -1)
		default:
			row[0] = 0
		}
		row[1] = 2.5
	}
	add("signed-zeros/c3/d6/full", X, y, 3, withDepth(Params{MinChildWeight: 0.05}, 6, 15, 10))

	// Without row sampling every class tree of a round grows from the
	// same rows.
	X, y = mltest.Blobs(100, 5, 12, 1.5, 11)
	add("shared-root/c5/d6/cols", quantize(X, 1.5), y, 5,
		withDepth(Params{Subsample: 1, ColsampleByTree: 0.5}, 6, 15, 11))

	// The split scan's exits scale with MinChildWeight: a node below twice
	// it is a leaf, and a scan stops once the right side falls below it.
	for _, mcw := range []float64{0.5, 3} {
		X, y = mltest.Blobs(90, 3, 10, 1.5, 12)
		add(fmt.Sprintf("min-child-weight/%g/c3/d6/half", mcw), quantize(X, 1), y, 3,
			withDepth(Params{Subsample: 0.5, ColsampleByTree: 0.5, MinChildWeight: mcw}, 6, 30, 12))
	}

	// A confident fit: hessians shrink until whole trees are one leaf.
	X, y = mltest.Blobs(120, 3, 8, 1, 13)
	add("confident/c3/d6/half", quantize(X, 0.5), y, 3,
		withDepth(Params{Subsample: 0.5, ColsampleByTree: 0.5, LearningRate: 1}, 6, 100, 13))

	cases = append(cases, goldenCase{"corpus/random", randomFits(1000, 27, 200, 1, 3, []float64{1, 0.01})})
	cases = append(cases, goldenCase{"corpus/exits", randomFits(300, 28, 100, 10, 60, []float64{0.25, 1, 3})})
	return cases
}

// Column kinds of randomFits besides the levels 0–5: continuous, and
// continuous clipped at zero from below or from above, so that the only
// tied values of a column are its least or its greatest.
const (
	continuous   = -1
	clippedBelow = -2
	clippedAbove = -3
)

// randomFits draws n small fits aimed at the split scan's tie orders and
// exits: 2 to maxRows rows, a fifth of the sets 10–15 rows around pdqsort's
// insertion-sort cutoff; 1–12 columns, each quantized to the integers
// 0..L for L in 0–5, continuous, or clipped, with each zero's sign drawn;
// a quarter of the rows duplicates of earlier ones, sharing their slices
// as modelsel.Oversample does; 2–5 classes; depth 1–20; row and column
// sampling at 0.5 or 1; minRounds to maxRounds rounds, so that later
// rounds' hessians shrink; and a MinChildWeight drawn from mcw.
func randomFits(n int, seed int64, maxRows, minRounds, maxRounds int, mcw []float64) []goldenFit {
	rng := rand.New(rand.NewSource(seed))
	half := []float64{0.5, 1}
	fits := make([]goldenFit, n)
	for k := range fits {
		rows := 2 + rng.Intn(maxRows-1)
		if rng.Intn(5) == 0 {
			rows = 10 + rng.Intn(6)
		}
		levels := make([]int, 1+rng.Intn(12))
		for j := range levels {
			levels[j] = rng.Intn(9) - 3
		}
		classes := 2 + rng.Intn(4)
		X, y := make([][]float64, rows), make([]int, rows)
		for i := range X {
			if i > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(i)
				X[i], y[i] = X[j], y[j]
				continue
			}
			y[i] = rng.Intn(classes)
			X[i] = make([]float64, len(levels))
			for j, l := range levels {
				v := rng.NormFloat64()
				switch l {
				case continuous:
				case clippedBelow:
					v = max(v, 0)
				case clippedAbove:
					v = min(v, 0)
				default:
					v = float64(rng.Intn(l + 1))
				}
				if v == 0 && rng.Intn(2) == 0 {
					v = math.Copysign(0, -1)
				}
				X[i][j] = v
			}
		}
		fits[k] = goldenFit{X, y, classes, Params{
			NumRounds:       minRounds + rng.Intn(maxRounds-minRounds+1),
			MaxDepth:        1 + rng.Intn(20),
			Subsample:       half[rng.Intn(2)],
			ColsampleByTree: half[rng.Intn(2)],
			MinChildWeight:  mcw[rng.Intn(len(mcw))],
			Seed:            rng.Int63(),
		}}
	}
	return fits
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
		sum := sha256.New()
		for k, fit := range c.fits {
			m := New(fit.p)
			if err := m.Fit(fit.X, fit.y, fit.classes); err != nil {
				t.Fatalf("%s, fit %d: %v", c.name, k, err)
			}
			raw, err := m.MarshalBinary()
			if err != nil {
				t.Fatalf("%s, fit %d: %v", c.name, k, err)
			}
			sum.Write(raw)
		}
		got[c.name] = hex.EncodeToString(sum.Sum(nil))
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
