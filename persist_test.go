package mvg

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"path/filepath"
	"testing"

	"mvg/internal/synth"
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

// savedModel trains the default xgb model on FreqSines (three classes,
// series of 128 samples, 184 features) and returns its saved bytes.
func savedModel(tb testing.TB) []byte {
	tb.Helper()
	fam, err := synth.ByName("FreqSines")
	if err != nil {
		tb.Fatal(err)
	}
	train, _ := fam.Generate(1)
	model, err := trainOnce(train.Series, train.Labels, train.Classes(), Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	defer model.Pipeline().Close()
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// craftSnapshot re-encodes the saved model raw after mutate has edited
// its decoded snapshot.
func craftSnapshot(tb testing.TB, raw []byte, mutate func(s *modelSnapshot)) []byte {
	tb.Helper()
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	mutate(&snap)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(snap); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// inconsistentSnapshots disagree with their own config on the feature
// vector. Before LoadModel checked them, each one loaded: a series length
// of 64 then panicked in the booster on PredictProba, short spreads
// panicked in the drift score on PredictAlert, a short centroid was
// skipped by the drift score, and a short scaler failed every predict.
var inconsistentSnapshots = []struct {
	name   string
	mutate func(s *modelSnapshot)
}{
	{"series_length", func(s *modelSnapshot) { s.SeriesLen = 64 }},
	{"series_length_zero", func(s *modelSnapshot) { s.SeriesLen = 0 }},
	{"names", func(s *modelSnapshot) { s.Names[0], s.Names[1] = s.Names[1], s.Names[0] }},
	{"short_spreads", func(s *modelSnapshot) { s.Spreads = s.Spreads[:1] }},
	{"missing_centroid", func(s *modelSnapshot) { s.Centroids, s.Spreads = s.Centroids[:2], s.Spreads[:2] }},
	{"centroid_width", func(s *modelSnapshot) { s.Centroids[1] = s.Centroids[1][:len(s.Centroids[1])-1] }},
	{"scaler_width", func(s *modelSnapshot) {
		s.ScalerMin = make([]float64, len(s.Names)-1)
		s.ScalerRange = make([]float64, len(s.Names)-1)
	}},
	{"scaler_range_only", func(s *modelSnapshot) { s.ScalerRange = make([]float64, len(s.Names)) }},
}

// TestLoadModelRejectsInconsistentSnapshot: a snapshot whose names,
// scaler or drift baseline do not fit the feature vector its config
// extracts is refused at load rather than crashing or failing a predict.
func TestLoadModelRejectsInconsistentSnapshot(t *testing.T) {
	raw := savedModel(t)
	for _, tc := range inconsistentSnapshots {
		t.Run(tc.name, func(t *testing.T) {
			m, err := LoadModel(bytes.NewReader(craftSnapshot(t, raw, tc.mutate)))
			if err == nil {
				m.Pipeline().Close()
				t.Fatal("inconsistent snapshot loaded")
			}
		})
	}
	// What the checks allow still loads: a centroid left empty for a class
	// absent from training, and a scaler of the right width.
	for name, mutate := range map[string]func(s *modelSnapshot){
		"empty_centroid": func(s *modelSnapshot) { s.Centroids[2] = nil },
		"scaler": func(s *modelSnapshot) {
			s.ScalerMin = make([]float64, len(s.Names))
			s.ScalerRange = make([]float64, len(s.Names))
		},
	} {
		m, err := LoadModel(bytes.NewReader(craftSnapshot(t, raw, mutate)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m.Pipeline().Close()
	}
}

// TestLoadModelStoreTrained: a model trained from a feature store saves
// and loads like one trained from series, and predicts the same.
func TestLoadModelStoreTrained(t *testing.T) {
	train, labelIDs := predictableDataset(t, 31)
	test, _ := predictableDataset(t, 32)
	tokens := make([]string, len(labelIDs))
	for i, id := range labelIDs {
		tokens[i] = []string{"sine", "noise"}[id]
	}
	cfg := Config{Folds: 2, Seed: 1, Workers: 2}
	ctx := context.Background()
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dir := t.TempDir()
	if _, err := p.ExtractToStore(ctx, SliceSource(train, tokens, 7), StoreOptions{Dir: dir, Dataset: "pred"}); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFeatureStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	model, err := s.Train(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer model.Pipeline().Close()
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Pipeline().Close()
	want, err := model.PredictProba(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictProba(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got)
}

// maxFuzzSeriesLen bounds the series FuzzLoadModel predicts on, so one
// input cannot ask the fuzz worker for gigabytes.
const maxFuzzSeriesLen = 1 << 14

// FuzzLoadModel holds LoadModel to its contract on any bytes: it returns
// an error, or a model on which PredictProba over one series of
// SeriesLen samples and PredictAlert on one stream hop both return
// without panicking. Models of series longer than maxFuzzSeriesLen are
// loaded but not predicted.
func FuzzLoadModel(f *testing.F) {
	raw := savedModel(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	for _, tc := range inconsistentSnapshots {
		f.Add(craftSnapshot(f, raw, tc.mutate))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer m.Pipeline().Close()
		if m.seriesLen > maxFuzzSeriesLen {
			return
		}
		series := make([]float64, m.seriesLen)
		for i := range series {
			series[i] = math.Sin(0.37*float64(i)) + float64(i%7)/10
		}
		// An error from either predict keeps the contract; a panic breaks it.
		ctx := context.Background()
		_, _ = m.PredictProba(ctx, [][]float64{series})
		s, err := m.NewStream(m.seriesLen)
		if err != nil {
			return
		}
		if _, err := s.PushBatch(series); err != nil {
			return
		}
		_, _ = s.PredictAlert(ctx)
	})
}
