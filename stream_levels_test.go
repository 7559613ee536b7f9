package mvg

import (
	"context"
	"math"
	"testing"
)

// countsMaintained reports whether s keeps its subgraph counts current
// per push (the maintained side of maintainRatio) rather than recounting.
func countsMaintained(s *Stream) bool {
	inc := s.pyr.Window()
	ring := inc.VG()
	if ring == nil {
		ring = inc.HVG()
	}
	if ring == nil {
		return false
	}
	_, ok := ring.Subgraphs()
	return ok
}

// checkEveryPush pushes series through a stream and, after every push past
// Ready (not only on hops), requires Features to match Pipeline.Extract on
// the materialized window: bit-identical vectors, or an error from both.
// Between hops the window starts off the level rings' block boundaries, so
// this pins the fallback that builds those levels from the window. It
// returns how many windows both rejected.
func checkEveryPush(t *testing.T, p *Pipeline, series []float64, windowLen, hop int, wantMaintained bool) (rejected int) {
	t.Helper()
	s, err := p.NewStream(windowLen, hop)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Incremental() {
		t.Fatal("streaming config is not incremental")
	}
	if got := countsMaintained(s); got != wantMaintained {
		t.Fatalf("window %d hop %d: counts maintained = %v, want %v", windowLen, hop, got, wantMaintained)
	}
	for i, x := range series {
		if _, err := s.Push(x); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if !s.Ready() {
			continue
		}
		got, gotErr := s.Features()
		want, wantErr := p.Extract(context.Background(), [][]float64{series[i+1-windowLen : i+1]})
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("window ending at %d: stream error %v, batch error %v", i, gotErr, wantErr)
		}
		if wantErr != nil {
			rejected++
		} else if !bitsEqual(got, want[0]) {
			t.Fatalf("window %d hop %d, window ending at %d: stream features differ from batch extraction", windowLen, hop, i)
		}
	}
	return rejected
}

// TestStreamFeaturesEveryPush pins the level rings of the multiscale
// streaming configuration: at (512, 8) and (256, 4) the stream maintains
// its counts and the pyramid levels the hop aligns with, at (128, 64) it
// recounts, and Features matches batch extraction after every push.
func TestStreamFeaturesEveryPush(t *testing.T) {
	p, err := NewPipeline(streamCfg("mvg", "both"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, g := range []struct {
		windowLen, hop, extra int
		maintained            bool
	}{
		{512, 8, 24, true},
		{256, 4, 48, true},
		{128, 64, 160, false},
	} {
		shapes := adversarialStreams(g.windowLen+g.extra, int64(g.windowLen))
		smooth := make([]float64, len(shapes["walk"]))
		level := 0.0
		for i, x := range shapes["walk"] {
			level = 0.9*level + 0.1*x
			smooth[i] = level
		}
		shapes["smoothed"] = smooth
		for name, series := range shapes {
			t.Run(name, func(t *testing.T) {
				checkEveryPush(t, p, series, g.windowLen, g.hop, g.maintained)
			})
		}
	}
}

// TestStreamLevelOverflow feeds samples whose pairwise means overflow to
// +Inf, which batch extraction rejects at the first halving: the stream
// must fail exactly when batch extraction does, and agree bit for bit
// again once the overflowing block has left the window. At (64, 4) both
// halvings of the pyramid come from level rings, so no level built from
// the window can raise the error in their place.
func TestStreamLevelOverflow(t *testing.T) {
	p, err := NewPipeline(streamCfg("mvg", "both"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	series := adversarialStreams(256, 5)["walk"]
	series[100], series[101] = math.MaxFloat64, math.MaxFloat64
	if rejected := checkEveryPush(t, p, series, 64, 4, true); rejected == 0 {
		t.Fatal("no window overflowed; the test no longer reaches the overflow path")
	}
}

// FuzzStreamAgainstBatchMultiscale fuzzes the multiscale streaming
// configuration against batch extraction after every push, across window
// lengths whose pyramids differ in depth and hops on both sides of the
// maintain-or-recount rule. The nightly fuzz workflow runs it for 5
// minutes.
func FuzzStreamAgainstBatchMultiscale(f *testing.F) {
	f.Add([]byte{4, 7, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170})
	f.Add([]byte{2, 3, 1, 1, 1, 1, 1, 1, 200, 3})
	f.Add([]byte{1, 1, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 128})
	f.Add([]byte{3, 40, 9, 8, 7, 9, 12, 15, 11, 30, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		windowLen := []int{32, 48, 64, 96, 128}[int(data[0])%5]
		hop := 1 + int(data[1])%windowLen
		samples := data[2:]
		if len(samples) > 256 {
			samples = samples[:256]
		}
		series := make([]float64, windowLen+len(samples))
		for i := range series {
			// Repeat the fuzzed bytes so every input fills a window.
			series[i] = float64(int(samples[i%len(samples)])-128) / 8
		}
		p, err := NewPipeline(streamCfg("mvg", "both"))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		checkEveryPush(t, p, series, windowLen, hop, windowLen >= maintainRatio*hop)
	})
}
