package mvg

import (
	"math/rand"
	"testing"

	"mvg/internal/core"
	"mvg/internal/graph"
	"mvg/internal/visibility"
)

// BenchmarkStreamPush proves the streaming engine's point: maintaining the
// sliding-window visibility graphs incrementally versus rebuilding them
// from scratch on every window slide, at the acceptance geometry
// (windowLen=512, hop=1). "incremental" is Stream.Push on the streaming
// configuration; "recompute" is what a naive stream would do per slide —
// materialize the window and run the batch VG+HVG builders. The CI bench
// gate pins incremental allocs/op and enforces the ≥5× ns/op ratio via
// the benchcheck ratio gate (.github/BENCH_baseline.json).
func BenchmarkStreamPush(b *testing.B) {
	const windowLen = 512
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 1<<14)
	level := 0.0
	for i := range samples {
		level += rng.NormFloat64()
		samples[i] = level
	}

	b.Run("incremental", func(b *testing.B) {
		p, err := NewPipeline(streamBenchCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		s, err := p.NewStream(windowLen, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Warm: fill the window and wrap the ring once so every slot's
		// row storage has grown.
		for i := 0; i < 2*windowLen; i++ {
			if _, err := s.Push(samples[i%len(samples)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Push(samples[i%len(samples)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("recompute", func(b *testing.B) {
		// The per-slide full rebuild: ring write + window materialization
		// + batch VG and HVG construction, with every buffer reused (the
		// best a non-incremental stream could do).
		ring := make([]float64, windowLen)
		window := make([]float64, windowLen)
		var builder visibility.Builder
		var vg, hvg graph.Graph
		rebuild := func(i int) {
			ring[i%windowLen] = samples[i%len(samples)]
			for k := 0; k < windowLen; k++ {
				window[k] = ring[(i+1+k)%windowLen]
			}
			edges, err := builder.VGEdges(window)
			if err != nil {
				b.Fatal(err)
			}
			vg.BuildUnchecked(windowLen, edges)
			edges, err = builder.HVGEdges(window)
			if err != nil {
				b.Fatal(err)
			}
			hvg.BuildUnchecked(windowLen, edges)
		}
		for i := 0; i < 2*windowLen; i++ {
			rebuild(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rebuild(i + 2*windowLen)
		}
	})
}

func streamBenchCfg() Config {
	return Config{Scale: "uvg", Graphs: "both", NoDetrend: true, NoZNormalize: true}
}

// BenchmarkStreamHop measures the full per-hop serving cost — Push plus
// Features — at hop=8, the latency-versus-cost tradeoff documented in
// docs/streaming.md. At this geometry the stream keeps its subgraph
// counts current per push, so a hop snapshots the T0 rings for the
// remaining statistics and closes the counts.
func BenchmarkStreamHop(b *testing.B) {
	benchStreamHop(b, streamBenchCfg(), 512, 8)
}

// BenchmarkStreamHopMultiscale is BenchmarkStreamHop at the stream_hop
// benchmark workload's configuration: the default multiscale pyramid,
// where T1–T3 come from level rings and only T4 and T5 are built per hop.
func BenchmarkStreamHopMultiscale(b *testing.B) {
	benchStreamHop(b, Config{NoDetrend: true, NoZNormalize: true}, 512, 8)
}

// BenchmarkStreamHopLargeHop is BenchmarkStreamHop on the recount side of
// the maintain-or-recount rule: at hop=128 the stream keeps only the T0
// ring graphs and recounts the snapshot per hop.
func BenchmarkStreamHopLargeHop(b *testing.B) {
	benchStreamHop(b, streamBenchCfg(), 512, 128)
}

// BenchmarkStreamHopRecompute is the per-hop cost without a stream: the
// same samples and geometry as BenchmarkStreamHop, with every hop
// materializing the window and running batch extraction on it, scratch
// reused. The CI ratio gate holds BenchmarkStreamHop against it.
func BenchmarkStreamHopRecompute(b *testing.B) {
	const windowLen, hop = 512, 8
	p, err := NewPipeline(streamBenchCfg())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	samples := streamBenchSamples()
	ring := make([]float64, windowLen)
	window := make([]float64, windowLen)
	sc := core.NewScratch()
	n := 2 * windowLen
	for i := 0; i < n; i++ {
		ring[i%windowLen] = samples[i%len(samples)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < hop; k++ {
			ring[n%windowLen] = samples[n%len(samples)]
			n++
		}
		for k := 0; k < windowLen; k++ {
			window[k] = ring[(n+k)%windowLen]
		}
		if _, err := p.extractor.ExtractWith(sc, window); err != nil {
			b.Fatal(err)
		}
	}
}

// streamBenchSamples is the random walk the hop benchmarks stream.
func streamBenchSamples() []float64 {
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 1<<14)
	level := 0.0
	for i := range samples {
		level += rng.NormFloat64()
		samples[i] = level
	}
	return samples
}

// benchStreamHop times one hop per iteration — hop pushes, then Features —
// on a warm stream of the given configuration and geometry.
func benchStreamHop(b *testing.B, cfg Config, windowLen, hop int) {
	p, err := NewPipeline(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	s, err := p.NewStream(windowLen, hop)
	if err != nil {
		b.Fatal(err)
	}
	samples := streamBenchSamples()
	for i := 0; i < 2*windowLen; i++ {
		if _, err := s.Push(samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
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
		if _, err := s.Features(); err != nil {
			b.Fatal(err)
		}
	}
}
