package mvg

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"mvg/internal/synth"
)

// goldenTrainCases pins the SHA-256 of the saved model file that
// Pipeline.Train produces for three synth families: two on the quick grid
// (one oversampled, over an imbalanced family) and one on the Full grid.
// Training may get faster; these bytes may not change. The pins hold on
// amd64, where they were taken (math.Exp has an FMA path there, and other
// architectures fuse multiply-adds in compiled code).
var goldenTrainCases = []struct {
	family string
	cfg    Config
	sha256 string
}{
	{"SynthECG", Config{Seed: 1}, "71758d1b123a620b56eddeba34e056363a6f14bf190cca7345bf14ca61c2843a"},
	{"BurstNoise", Config{Seed: 2, Oversample: true}, "b5f6a60133eb99371b98c09a1c0e924aca0b1f3fd3b5407daad7361682243f13"},
	{"WarpedShapes", Config{Seed: 3, FullGrid: true}, "07de4f95770896e5a4b965bc1ce6ac34a03110867f0fd921b8fab21d3c22152f"},
}

// savedModelHash trains a model on one synth family and returns the
// hex SHA-256 of its saved bytes.
func savedModelHash(t *testing.T, family string, cfg Config) string {
	t.Helper()
	fam, err := synth.ByName(family)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := fam.Generate(1)
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := p.Train(context.Background(), train.Series, train.Labels, fam.Classes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestTrainGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("saved-model hashes are pinned on amd64")
	}
	for _, c := range goldenTrainCases {
		if got := savedModelHash(t, c.family, c.cfg); got != c.sha256 {
			t.Errorf("%s (full grid %v, oversample %v): saved model hash %s, pinned %s",
				c.family, c.cfg.FullGrid, c.cfg.Oversample, got, c.sha256)
		}
	}
}

// TestTrainBytesIndependentOfWorkers: grid-search jobs run on the
// pipeline's pool, and the saved model must not depend on how many
// workers share them.
func TestTrainBytesIndependentOfWorkers(t *testing.T) {
	want := savedModelHash(t, "SynthECG", Config{Seed: 1, Workers: 1})
	for _, workers := range []int{2, 8} {
		if got := savedModelHash(t, "SynthECG", Config{Seed: 1, Workers: workers}); got != want {
			t.Errorf("Workers %d: saved model hash %s, Workers 1 saved %s", workers, got, want)
		}
	}
}
