package visibility

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mvg/internal/graph"
)

// batchWindowGraphs builds the batch-reference VG and HVG of one window.
func batchWindowGraphs(t *testing.T, b *Builder, window []float64) (vg, hvg *graph.Graph) {
	t.Helper()
	vgEdges, err := b.VGEdges(window)
	if err != nil {
		t.Fatal(err)
	}
	vg = graph.FromEdgesUnchecked(len(window), vgEdges)
	hvgEdges, err := b.HVGEdges(window)
	if err != nil {
		t.Fatal(err)
	}
	hvg = graph.FromEdgesUnchecked(len(window), hvgEdges)
	return vg, hvg
}

// slideAndCompare pushes series through an Incremental of the given window
// length and, once the window is full, compares both maintained graphs
// against batch rebuilds of the materialized window after every push.
func slideAndCompare(t *testing.T, name string, series []float64, windowLen int) {
	t.Helper()
	inc, err := NewIncremental(windowLen, true, true)
	if err != nil {
		t.Fatal(err)
	}
	var b Builder
	var vgSnap, hvgSnap graph.Graph
	var window []float64
	for i, x := range series {
		if err := inc.Push(x); err != nil {
			t.Fatalf("%s: push %d: %v", name, i, err)
		}
		if inc.Len() < 2 {
			continue
		}
		window = inc.WindowInto(window)
		wantVG, wantHVG := batchWindowGraphs(t, &b, window)
		inc.VG().ToCSR(&vgSnap)
		inc.HVG().ToCSR(&hvgSnap)
		identicalGraphs(t, name+"/vg", &vgSnap, wantVG)
		identicalGraphs(t, name+"/hvg", &hvgSnap, wantHVG)
	}
}

func TestIncrementalAgainstBatchAdversarial(t *testing.T) {
	for name, series := range adversarialSeries() {
		if len(series) < 4 {
			continue
		}
		for _, w := range []int{2, 3, 8, 32} {
			if w > len(series) {
				continue
			}
			slideAndCompare(t, name, series, w)
		}
	}
}

func TestIncrementalAgainstBatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		series := randomSeries(3+rng.Intn(96), rng)
		// Plateaus exercise the equal-height pop rule across evictions.
		if iter%2 == 0 {
			for i := range series {
				series[i] = math.Round(series[i] * 2)
			}
		}
		w := 2 + rng.Intn(len(series)-1)
		slideAndCompare(t, "random", series, w)
	}
}

// TestIncrementalLongStream wraps the ring many times over a window much
// shorter than the stream, exercising stack compaction and slot reuse.
func TestIncrementalLongStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const w = 24
	series := make([]float64, 40*w)
	level := 0.0
	for i := range series {
		level += rng.NormFloat64()
		series[i] = math.Round(level*4) / 4
	}
	slideAndCompare(t, "long-walk", series, w)
}

func TestIncrementalSampleRingOnly(t *testing.T) {
	inc, err := NewIncremental(4, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := inc.Push(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := inc.WindowInto(nil)
	want := []float64{6, 7, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window = %v, want %v", got, want)
		}
	}
	if inc.Total() != 10 || inc.Len() != 4 {
		t.Fatalf("Total=%d Len=%d, want 10/4", inc.Total(), inc.Len())
	}
}

func TestIncrementalRejectsNonFinite(t *testing.T) {
	inc, err := NewIncremental(8, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 0.5} {
		if err := inc.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := inc.Push(bad)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Push(%v) = %v, want ErrNonFinite", bad, err)
		}
	}
	if inc.Len() != 3 {
		t.Fatalf("rejected pushes mutated the window: Len=%d, want 3", inc.Len())
	}
	// The window must still track the batch builders after a rejection.
	slide := inc.WindowInto(nil)
	var b Builder
	wantVG, _ := batchWindowGraphs(t, &b, slide)
	var snap graph.Graph
	inc.VG().ToCSR(&snap)
	identicalGraphs(t, "post-reject/vg", &snap, wantVG)
}

func TestIncrementalWindowLenValidation(t *testing.T) {
	if _, err := NewIncremental(1, true, true); !errors.Is(err, ErrWindowLen) {
		t.Fatalf("NewIncremental(1) err = %v, want ErrWindowLen", err)
	}
}

func TestIncrementalReset(t *testing.T) {
	inc, err := NewIncremental(6, true, true)
	if err != nil {
		t.Fatal(err)
	}
	series := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, x := range series {
		if err := inc.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	inc.Reset()
	if inc.Len() != 0 || inc.Total() != 0 {
		t.Fatalf("Reset left Len=%d Total=%d", inc.Len(), inc.Total())
	}
	slideAndCompare(t, "post-reset", series, 6)
}

// TestIncrementalPushAllocFree pins the hot-path contract: warm pushes
// allocate nothing.
func TestIncrementalPushAllocFree(t *testing.T) {
	inc, err := NewIncremental(64, true, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	walk := 0.0
	push := func() {
		walk += rng.NormFloat64()
		if err := inc.Push(walk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64*4; i++ {
		push()
	}
	if allocs := testing.AllocsPerRun(200, push); allocs > 0 {
		t.Fatalf("warm Push allocates %.1f/op, want 0", allocs)
	}
}
