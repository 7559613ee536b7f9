package mvg

import (
	"context"
	"fmt"
	"testing"

	"mvg/internal/synth"
)

// BenchmarkPipelineReuse quantifies the tentpole win of the Pipeline API:
// a persistent pipeline (compiled extractor + worker pool whose scratch
// survives across calls) versus the per-call ExtractFeaturesBatch path
// (extractor rebuilt, scratch re-grown from nil every invocation), at the
// batch sizes a serving coalescer actually flushes. Workers is pinned to 1
// so allocs/op — the CI-gated metric — is identical on any machine; the
// comparison is about per-call construction overhead, not parallel
// speedup (BenchmarkExtractBatch covers that).
func BenchmarkPipelineReuse(b *testing.B) {
	const length = 512
	ctx := context.Background()
	for _, size := range []int{1, 8, 64} {
		series := make([][]float64, size)
		for i := range series {
			series[i] = randomSeries(length, int64(i+1))
		}
		b.Run(fmt.Sprintf("batch=%d/pipeline", size), func(b *testing.B) {
			p, err := NewPipeline(Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			// Warm the per-worker scratch so the timed region measures the
			// steady state a long-lived pipeline runs in.
			for i := 0; i < 2; i++ {
				if _, err := p.Extract(ctx, series); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Extract(ctx, series); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch=%d/percall", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := extractOnce(series, Config{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrain runs Pipeline.Train on SynthECG with the quick grid: MVG
// extraction of 60 series, then the stratified 3-fold grid search and the
// winner's refit, which take most of the time. Workers is pinned to 1 so
// allocs/op, the CI-gated metric, does not depend on scheduling.
func BenchmarkTrain(b *testing.B) {
	fam, err := synth.ByName("SynthECG")
	if err != nil {
		b.Fatal(err)
	}
	train, _ := fam.Generate(1)
	ctx := context.Background()
	p, err := NewPipeline(Config{Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	// Warm the extraction scratch, as a pipeline that trains repeatedly is.
	if _, err := p.Train(ctx, train.Series, train.Labels, fam.Classes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Train(ctx, train.Series, train.Labels, fam.Classes); err != nil {
			b.Fatal(err)
		}
	}
}
