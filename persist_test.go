package mvg

import (
	"bytes"
	"context"
	"encoding/gob"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	trX, trY, teX, _, classes := loadFamily(t, "FreqSines")
	model, err := trainOnce(trX, trY, classes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must match exactly.
	p1, err := model.PredictProba(context.Background(), teX)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := loaded.PredictProba(context.Background(), teX)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		for j := range p1[i] {
			if p1[i][j] != p2[i][j] {
				t.Fatalf("prediction drift after reload at [%d][%d]: %v vs %v",
					i, j, p1[i][j], p2[i][j])
			}
		}
	}
	if loaded.Classes() != model.Classes() {
		t.Error("classes lost")
	}
	n1, n2 := model.FeatureNames(), loaded.FeatureNames()
	if len(n1) != len(n2) {
		t.Fatal("feature names lost")
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatal("feature names changed")
		}
	}
	// Importance still available on the reloaded model.
	if _, err := loaded.FeatureImportance(); err != nil {
		t.Errorf("importance after reload: %v", err)
	}

	// The file-based helpers round-trip the same way (the serving
	// registry's load path).
	path := filepath.Join(t.TempDir(), "model.mvg")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := fromFile.PredictProba(context.Background(), teX)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		for j := range p1[i] {
			if p1[i][j] != p3[i][j] {
				t.Fatalf("prediction drift after file reload at [%d][%d]: %v vs %v",
					i, j, p1[i][j], p3[i][j])
			}
		}
	}
	if fromFile.Workers() != 0 {
		t.Errorf("loaded model Workers() = %d, want 0 (GOMAXPROCS)", fromFile.Workers())
	}
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "missing.mvg")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestSaveUnsupportedClassifier(t *testing.T) {
	trX, trY, _, _, classes := loadFamily(t, "FreqSines")
	model, err := trainOnce(trX[:20], trY[:20], classes, Config{Classifier: "rf", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err == nil {
		t.Error("saving an rf model should fail")
	}
}

func TestLoadModelGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage input should fail")
	}
	if _, err := LoadModel(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

// TestLoadModelRejectsMismatchedBooster: a snapshot whose booster predicts
// a different class count, or reads a different feature width, than the
// snapshot declares is refused at load rather than at the first predict.
func TestLoadModelRejectsMismatchedBooster(t *testing.T) {
	trX, trY, _, _, classes := loadFamily(t, "FreqSines")
	model, err := trainOnce(trX, trY, classes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *modelSnapshot)
	}{
		{"classes", func(s *modelSnapshot) { s.Classes++ }},
		{"width", func(s *modelSnapshot) { s.Names = s.Names[:len(s.Names)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := snap
			tc.mutate(&bad)
			var out bytes.Buffer
			if err := gob.NewEncoder(&out).Encode(bad); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadModel(&out); err == nil {
				t.Error("mismatched booster loaded")
			}
		})
	}
}
