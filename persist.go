package mvg

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"mvg/internal/ml"
	"mvg/internal/ml/xgb"
)

// Model persistence: a trained xgb-backed pipeline (the default
// configuration) can be written to any io.Writer and restored without
// retraining. The snapshot carries the extraction Config, the fitted
// booster, the optional scaler, and the metadata needed to validate
// inputs at load time.

type modelSnapshot struct {
	Version     int
	Cfg         Config
	Classes     int
	SeriesLen   int
	Names       []string
	ScalerMin   []float64
	ScalerRange []float64
	Booster     []byte
	// Drift baseline (PR 7). Older snapshots simply lack these fields —
	// gob tolerates that in both directions, so the version stays at 1 and
	// such models load with HasDrift() == false.
	Centroids [][]float64
	Spreads   []float64
}

const snapshotVersion = 1

// Save serializes the model. Only the "xgb" classifier back end supports
// persistence; rf/svm/stack models return an error.
func (m *Model) Save(w io.Writer) error {
	booster, ok := m.clf.(*xgb.Model)
	if !ok {
		return fmt.Errorf("mvg: persistence requires the xgb classifier (have %T)", m.clf)
	}
	raw, err := booster.MarshalBinary()
	if err != nil {
		return err
	}
	snap := modelSnapshot{
		Version:   snapshotVersion,
		Cfg:       m.pipe.cfg,
		Classes:   m.classes,
		SeriesLen: m.seriesLen,
		Names:     m.names,
		Booster:   raw,
		Centroids: m.drift.centroids,
		Spreads:   m.drift.spreads,
	}
	// Workers is a deployment-time concurrency knob, not part of the
	// learned model: pinning the training machine's setting would force
	// e.g. a single-threaded CI-trained model to predict single-threaded
	// on a 64-core server forever. Saved models default to GOMAXPROCS;
	// use SetWorkers after LoadModel to tune.
	snap.Cfg.Workers = 0
	if m.scaler != nil {
		snap.ScalerMin = m.scaler.Min
		snap.ScalerRange = m.scaler.Range
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("mvg: encode model: %w", err)
	}
	return nil
}

// LoadModel restores a model written by Save. The loaded model gets its
// own fresh Pipeline (worker pool included), built from the persisted
// Config; use SetWorkers to match the serving machine's parallelism.
func LoadModel(r io.Reader) (*Model, error) {
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mvg: decode model: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("mvg: unsupported model version %d", snap.Version)
	}
	p, err := NewPipeline(snap.Cfg)
	if err != nil {
		return nil, err
	}
	booster, err := snap.restore(p)
	if err != nil {
		p.Close()
		return nil, err
	}
	m := &Model{
		pipe:      p,
		clf:       booster,
		classes:   snap.Classes,
		names:     snap.Names,
		seriesLen: snap.SeriesLen,
		drift:     driftBaseline{centroids: snap.Centroids, spreads: snap.Spreads},
	}
	if snap.ScalerMin != nil {
		m.scaler = &ml.MinMaxScaler{Min: snap.ScalerMin, Range: snap.ScalerRange}
	}
	return m, nil
}

// restore decodes the snapshot's booster and checks that every part of
// the snapshot agrees on the feature vector that p extracts from a series
// of SeriesLen samples. A snapshot that fails here would load and then
// panic or fail on every predict.
func (s *modelSnapshot) restore(p *Pipeline) (*xgb.Model, error) {
	booster := &xgb.Model{}
	if err := booster.UnmarshalBinary(s.Booster); err != nil {
		return nil, err
	}
	width := len(s.Names)
	if classes, w := booster.Dims(); classes != s.Classes || w != width {
		return nil, fmt.Errorf("mvg: model booster has %d classes over %d features, snapshot declares %d over %d",
			classes, w, s.Classes, width)
	}
	if s.SeriesLen < 2 {
		return nil, fmt.Errorf("mvg: model series length %d, want at least 2", s.SeriesLen)
	}
	if !slices.Equal(s.Names, p.FeatureNames(s.SeriesLen)) {
		return nil, fmt.Errorf("mvg: model feature names are not the %d that its config extracts from series of length %d",
			p.NumFeatures(s.SeriesLen), s.SeriesLen)
	}
	if s.ScalerMin != nil || s.ScalerRange != nil {
		if len(s.ScalerMin) != width || len(s.ScalerRange) != width {
			return nil, fmt.Errorf("mvg: model scaler has %d minima and %d ranges for %d features",
				len(s.ScalerMin), len(s.ScalerRange), width)
		}
	}
	if len(s.Centroids) > 0 || len(s.Spreads) > 0 {
		if len(s.Centroids) != s.Classes || len(s.Spreads) != len(s.Centroids) {
			return nil, fmt.Errorf("mvg: model drift baseline has %d centroids and %d spreads for %d classes",
				len(s.Centroids), len(s.Spreads), s.Classes)
		}
		for c, centroid := range s.Centroids {
			if len(centroid) != 0 && len(centroid) != width {
				return nil, fmt.Errorf("mvg: model drift centroid %d has %d features, want %d", c, len(centroid), width)
			}
		}
	}
	return booster, nil
}

// SaveFile writes the model to path (see Save for the persistence
// contract). The file is written atomically: a temporary sibling is
// created first and renamed over path only after a successful encode, so
// a concurrent LoadModelFile — e.g. a serving registry reload — never
// observes a half-written snapshot.
func (m *Model) SaveFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("mvg: save model: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := m.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp opens 0600; restore normal file permissions so a service
	// running as a different user than the trainer can read the model.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("mvg: save model: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("mvg: save model: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("mvg: save model: %w", err)
	}
	return nil
}

// LoadModelFile restores a model from a file written by SaveFile (or Save).
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mvg: load model: %w", err)
	}
	defer f.Close()
	return LoadModel(f)
}
