package main

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"time"

	"mvg"
	mvgcore "mvg/internal/core"
	"mvg/internal/graph"
	"mvg/internal/ml/xgb"
	"mvg/internal/motif"
	"mvg/internal/timeseries"
	"mvg/internal/visibility"
)

// stageTimes are one series' replayed stage durations and graph sizes.
type stageTimes struct {
	preprocess, pyramid, vg, hvg, csr, motif, stats time.Duration
	vgEdges, hvgEdges                               int
}

// stageReplay re-runs Pipeline.Extract one stage at a time through each
// layer's exported functions, timing every stage. It covers the
// configurations the benchmark serves: full multiscale, VG and HVG, all
// features, with or without window-relative preprocessing. Not safe for
// concurrent use.
type stageReplay struct {
	noDetrend, noZNormalize bool
	tau                     int

	// whole is the extraction the stages make up, run on the caller's
	// goroutine as each pipeline worker runs it.
	whole   *mvgcore.Extractor
	wholeSc *mvgcore.Scratch

	pre     []float64
	pyramid [][]float64
	scales  [][]float64
	vis     visibility.Builder
	g       graph.Graph
	motifs  motif.Counter
	cores   graph.CoreScratch
}

func newStageReplay(cfg mvg.Config) (*stageReplay, error) {
	if (cfg.Scale != "" && cfg.Scale != "mvg") || (cfg.Graphs != "" && cfg.Graphs != "both") ||
		(cfg.Features != "" && cfg.Features != "all") || cfg.Extended {
		return nil, fmt.Errorf("stage replay: unsupported config %+v", cfg)
	}
	tau := cfg.Tau
	if tau == 0 {
		tau = timeseries.DefaultTau
	}
	whole, err := mvgcore.NewExtractor(mvgcore.Options{Tau: cfg.Tau, NoDetrend: cfg.NoDetrend, NoZNormalize: cfg.NoZNormalize})
	if err != nil {
		return nil, err
	}
	return &stageReplay{
		noDetrend: cfg.NoDetrend, noZNormalize: cfg.NoZNormalize, tau: max(tau, 2),
		whole: whole, wholeSc: mvgcore.NewScratch(),
	}, nil
}

// extractWhole is Pipeline.Extract's per-series body, core.Extractor's
// ExtractWith, in one call.
func (r *stageReplay) extractWhole(series []float64) ([]float64, error) {
	return r.whole.ExtractWith(r.wholeSc, series)
}

// extract returns the feature vector Pipeline.Extract computes for series,
// with the time each stage took.
func (r *stageReplay) extract(series []float64) ([]float64, stageTimes, error) {
	var st stageTimes
	t := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d += now.Sub(t)
		t = now
	}

	if cap(r.pre) < len(series) {
		r.pre = make([]float64, len(series))
	}
	pre := r.pre[:len(series)]
	if r.noZNormalize {
		copy(pre, series)
	} else {
		timeseries.ZNormalizeInto(pre, series)
	}
	if !r.noDetrend {
		timeseries.DetrendInto(pre, pre)
	}
	lap(&st.preprocess)

	r.scales = append(r.scales[:0], pre)
	for level, cur := 0, pre; len(cur)/2 > r.tau; level++ {
		if level == len(r.pyramid) {
			r.pyramid = append(r.pyramid, nil)
		}
		next, err := timeseries.HalveInto(r.pyramid[level], cur)
		if err != nil {
			return nil, st, err
		}
		r.pyramid[level] = next
		r.scales = append(r.scales, next)
		cur = next
	}
	lap(&st.pyramid)

	var out []float64
	for _, s := range r.scales {
		for _, vg := range []bool{true, false} {
			var edges [][2]int
			var err error
			if vg {
				edges, err = r.vis.VGEdges(s)
				lap(&st.vg)
				st.vgEdges += len(edges)
			} else {
				edges, err = r.vis.HVGEdges(s)
				lap(&st.hvg)
				st.hvgEdges += len(edges)
			}
			if err != nil {
				return nil, st, err
			}
			r.g.BuildUnchecked(len(s), edges)
			lap(&st.csr)
			out = r.motifs.Count(&r.g).AppendProbabilities(out)
			lap(&st.motif)
			assort, _ := r.g.Assortativity() // undefined reads as 0, as in extraction
			maxDeg, minDeg, meanDeg := r.g.DegreeStats()
			out = append(out, r.g.Density(), assort, float64(r.g.DegeneracyScratch(&r.cores)),
				float64(maxDeg), float64(minDeg), meanDeg)
			lap(&st.stats)
		}
	}
	return out, st, nil
}

// loadBooster decodes the classifier of a saved model. The file is a gob
// snapshot, so a struct holding just the fields read here decodes it; a
// model with a feature scaler is refused, since the booster alone would
// not reproduce its probabilities.
func loadBooster(path string) (*xgb.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snap struct {
		Booster   []byte
		ScalerMin []float64
	}
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if snap.ScalerMin != nil {
		return nil, errors.New("classifier replay: the model scales its features")
	}
	b := &xgb.Model{}
	if err := b.UnmarshalBinary(snap.Booster); err != nil {
		return nil, err
	}
	return b, nil
}
