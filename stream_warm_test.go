package mvg

import (
	"context"
	"runtime"
	"testing"
)

// replayMallocs pushes samples through s, calling hop at every hop
// boundary, then Resets s (which keeps all its storage) and replays the
// same samples. It returns the second pass's hops and heap allocations:
// the cost of a warm hop, whatever the first pass grew. Unlike the
// benchmarks' allocs/op, which amortise growth after a short warm-up
// over b.N, the count does not depend on an iteration count.
func replayMallocs(t *testing.T, s *Stream, samples []float64, hop func() error) (hops int, mallocs uint64) {
	t.Helper()
	pass := func() int {
		hops := 0
		for _, x := range samples {
			ready, err := s.Push(x)
			if err != nil {
				t.Fatal(err)
			}
			if ready {
				if err := hop(); err != nil {
					t.Fatal(err)
				}
				hops++
			}
		}
		return hops
	}
	pass()
	s.Reset()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hops = pass()
	runtime.ReadMemStats(&after)
	return hops, after.Mallocs - before.Mallocs
}

// TestWarmStreamHopAllocs pins a warm stream hop, hop pushes plus
// Features, at one allocation: its feature vector. It covers both sides
// of the maintain-or-rebuild rule: the maintained rings at 512/8,
// uniscale and multiscale, and the per-hop rebuild at 512/128.
func TestWarmStreamHopAllocs(t *testing.T) {
	samples := streamBenchSamples()
	for _, c := range []struct {
		name           string
		cfg            Config
		windowLen, hop int
		hops           int
	}{
		{"uvg/512/8", streamBenchCfg(), 512, 8, 1985},
		{"mvg/512/8", Config{NoDetrend: true, NoZNormalize: true}, 512, 8, 1985},
		{"uvg/512/128", streamBenchCfg(), 512, 128, 125},
	} {
		p, err := NewPipeline(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.NewStream(c.windowLen, c.hop)
		if err != nil {
			t.Fatal(err)
		}
		hops, mallocs := replayMallocs(t, s, samples, func() error {
			_, err := s.Features()
			return err
		})
		p.Close()
		if hops != c.hops {
			t.Errorf("%s: %d hops, want %d", c.name, hops, c.hops)
		}
		if mallocs != uint64(hops) {
			t.Errorf("%s: a warm hop allocates %.3f objects (%d in %d hops), want 1: its feature vector",
				c.name, float64(mallocs)/float64(hops), mallocs, hops)
		}
	}
}

// TestWarmPredictAlertAllocs pins the two arms of
// BenchmarkStreamWithAlerting the same way, on its model (a constant
// stub classifier over real features): a warm Predict hop allocates 4
// objects, and a warm PredictAlert hop, with a drift score and three
// armed triggers, allocates the same 4, so the alerting layer adds none.
func TestWarmPredictAlertAllocs(t *testing.T) {
	const perHop = 4
	model, samples, hop := alertingBenchModel(t)
	defer model.pipe.Close()
	ctx := context.Background()
	for _, alerting := range []bool{false, true} {
		s, err := model.NewStream(hop)
		if err != nil {
			t.Fatal(err)
		}
		predict := func() error {
			_, _, err := s.Predict(ctx)
			return err
		}
		if alerting {
			if err := s.SetAlerts(alertingBenchTriggers()...); err != nil {
				t.Fatal(err)
			}
			predict = func() error {
				_, err := s.PredictAlert(ctx)
				return err
			}
		}
		hops, mallocs := replayMallocs(t, s, samples, predict)
		if mallocs != perHop*uint64(hops) {
			t.Errorf("alerting %v: a warm hop allocates %.3f objects (%d in %d hops), want %d",
				alerting, float64(mallocs)/float64(hops), mallocs, hops, perHop)
		}
	}
}
