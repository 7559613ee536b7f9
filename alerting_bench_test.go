package mvg

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mvg/internal/alert"
)

// BenchmarkStreamWithAlerting measures what the alerting layer adds to the
// per-hop serving cost: "predict" is the plain streaming prediction loop
// (Push to the hop boundary + Predict), "alerting" is the same loop through
// PredictAlert with a drift score and three armed triggers. The CI bench
// gate pins both arms' allocs/op (equal: the alerting layer allocates
// nothing per hop, which is the within-10% contract enforced exactly) and
// backstops ns/op with a noise-tolerant ≤1.25× ratio gate
// (.github/BENCH_baseline.json); the measured wall-clock delta is ~1%.
// The classifier is a constant stub so the delta measured is the alerting
// layer, not booster inference noise.
func BenchmarkStreamWithAlerting(b *testing.B) {
	model, samples, hop := alertingBenchModel(b)
	defer model.pipe.Close()
	windowLen := model.seriesLen

	run := func(b *testing.B, alerting bool) {
		s, err := model.NewStream(hop)
		if err != nil {
			b.Fatal(err)
		}
		if alerting {
			if err := s.SetAlerts(alertingBenchTriggers()...); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 2*windowLen; i++ {
			if _, err := s.Push(samples[i%len(samples)]); err != nil {
				b.Fatal(err)
			}
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		n := 2 * windowLen
		for i := 0; i < b.N; i++ {
			for {
				ready, err := s.Push(samples[n%len(samples)])
				n++
				if err != nil {
					b.Fatal(err)
				}
				if ready {
					break
				}
			}
			if alerting {
				if _, err := s.PredictAlert(ctx); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, _, err := s.Predict(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("predict", func(b *testing.B) { run(b, false) })
	b.Run("alerting", func(b *testing.B) { run(b, true) })
}

// BenchmarkAlertLayer times the alerting layer alone: each op scores one
// feature row's drift (Model.Drift) and evaluates alertingBenchTriggers
// on one point (alert.Evaluator.Eval). The rows and points are fixed,
// taken from 64 hops of a warm stream on BenchmarkStreamWithAlerting's
// model. CI gates it against BenchmarkStreamHop in the same run
// (.github/BENCH_baseline.json "ratios") and pins its allocs/op: it
// times the layer on its own (0.1–0.2 µs against a ~85 µs hop on
// 2 vCPUs), which BenchmarkStreamWithAlerting's two hop loops cannot
// resolve.
func BenchmarkAlertLayer(b *testing.B) {
	model, samples, hop := alertingBenchModel(b)
	defer model.pipe.Close()
	s, err := model.NewStream(hop)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rows := make([][]float64, 64)
	points := make([]alert.Point, len(rows))
	n := 0
	for k := range rows {
		for ready := false; !ready || n < 2*model.seriesLen; n++ {
			if ready, err = s.Push(samples[n%len(samples)]); err != nil {
				b.Fatal(err)
			}
		}
		feats, err := s.Features()
		if err != nil {
			b.Fatal(err)
		}
		class, proba, err := s.Predict(ctx)
		if err != nil {
			b.Fatal(err)
		}
		rows[k] = slices.Clone(feats)
		points[k] = alert.Point{Sample: n - 1, Class: class, Proba: proba, HasDrift: true}
	}
	eval, err := alert.NewEvaluator(alertingBenchTriggers()...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(rows)
		d, err := model.Drift(rows[k])
		if err != nil {
			b.Fatal(err)
		}
		p := points[k]
		p.Drift = d
		eval.Eval(p)
	}
}

// alertingBenchModel returns BenchmarkStreamWithAlerting's model, the
// random walk it streams and its hop: a uniscale model with a real drift
// baseline (centroids from two windows of the walk) but a free
// classifier. The caller closes model.pipe.
func alertingBenchModel(tb testing.TB) (model *Model, samples []float64, hop int) {
	const windowLen = 512
	p, err := NewPipeline(streamBenchCfg())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	samples = make([]float64, 1<<14)
	level := 0.0
	for i := range samples {
		level += rng.NormFloat64()
		samples[i] = level
	}
	X, err := p.Extract(context.Background(), [][]float64{
		samples[:windowLen], samples[windowLen : 2*windowLen],
	})
	if err != nil {
		tb.Fatal(err)
	}
	model = &Model{
		pipe:      p,
		clf:       constProbaClf{classes: 2},
		classes:   2,
		names:     p.FeatureNames(windowLen),
		seriesLen: windowLen,
		drift:     computeDriftBaseline(X, []int{0, 1}, 2),
	}
	return model, samples, 8
}

// alertingBenchTriggers are the alerting arm's three armed triggers.
func alertingBenchTriggers() []AlertTrigger {
	return []AlertTrigger{
		{Kind: AlertKindFlip},
		{Kind: AlertKindProba, Class: 1, Rise: 0.9, Clear: 0.5},
		{Kind: AlertKindDrift, Rise: 1e9, Clear: 1},
	}
}
