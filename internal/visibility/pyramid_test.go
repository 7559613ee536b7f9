package visibility

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mvg/internal/graph"
	"mvg/internal/timeseries"
)

func TestAlignedLevels(t *testing.T) {
	for _, tc := range []struct{ windowLen, hop, maxLevel, want int }{
		{512, 8, 5, 3},
		{512, 8, 2, 2},
		{512, 1, 5, 0},
		{512, 128, 5, 5},
		{96, 8, 5, 3},
		{48, 16, 5, 4},
		{48, 32, 5, 4},
		{100, 4, 5, 2},
		{64, 2, 0, 0},
	} {
		if got := AlignedLevels(tc.windowLen, tc.hop, tc.maxLevel); got != tc.want {
			t.Errorf("AlignedLevels(%d, %d, %d) = %d, want %d", tc.windowLen, tc.hop, tc.maxLevel, got, tc.want)
		}
	}
}

// TestPyramidLevelsMatchHalvings slides a walk through a three-level
// pyramid and, after every push, checks each Aligned level against the
// batch path: its window bit-identical to halving the window that many
// times, its graphs identical to the batch builders' on those values.
func TestPyramidLevelsMatchHalvings(t *testing.T) {
	const windowLen, levels = 64, 3
	p, err := NewPyramid(windowLen, levels, true, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var b Builder
	var window, got []float64
	var snap graph.Graph
	seen := make([]int, levels+1)
	x := 0.0
	for i := 0; i < 6*windowLen; i++ {
		x += rng.NormFloat64()
		if err := p.Push(x); err != nil {
			t.Fatal(err)
		}
		if i+1 < windowLen {
			continue
		}
		window = p.Window().WindowInto(window)
		want := window
		for k, inc := range p.Aligned() {
			if k > 0 {
				if want, err = timeseries.HalveInto(nil, want); err != nil {
					t.Fatal(err)
				}
			}
			seen[k]++
			got = inc.WindowInto(got)
			if len(got) != len(want) {
				t.Fatalf("push %d level %d: %d values, want %d", i, k, len(got), len(want))
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("push %d level %d value %d: %v, want %v", i, k, j, got[j], want[j])
				}
			}
			wantVG, wantHVG := batchWindowGraphs(t, &b, want)
			inc.VG().ToCSR(&snap)
			identicalGraphs(t, "vg", &snap, wantVG)
			inc.HVG().ToCSR(&snap)
			identicalGraphs(t, "hvg", &snap, wantHVG)
		}
	}
	for k, n := range seen {
		if n == 0 {
			t.Fatalf("level %d was never aligned", k)
		}
	}
	if seen[3] >= seen[1] {
		t.Fatalf("level 3 aligned %d times, level 1 %d: deeper levels must align less often", seen[3], seen[1])
	}
}

// TestPyramidOverflowAndReset pins the overflow rule: a level whose
// halving overflowed is not Aligned until that block has left the window,
// and Reset clears it.
func TestPyramidOverflowAndReset(t *testing.T) {
	const windowLen = 16
	p, err := NewPyramid(windowLen, 1, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(math.NaN()); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Push(NaN) = %v, want ErrNonFinite", err)
	}
	push := func(x float64) {
		t.Helper()
		if err := p.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < windowLen; i++ {
		push(float64(i % 3))
	}
	push(math.MaxFloat64)
	push(math.MaxFloat64) // completes a level-1 block of +Inf
	for i := 0; i < windowLen; i++ {
		aligned := len(p.Aligned())
		total := p.Window().Total()
		want := 1
		// The overflowed block covers samples [16, 18): it leaves the
		// window once 18+windowLen samples have been pushed.
		if total%2 == 0 && total >= 18+windowLen {
			want = 2
		}
		if aligned != want {
			t.Fatalf("after %d pushes: %d aligned levels, want %d", total, aligned, want)
		}
		push(1)
	}
	p.Reset()
	if p.Window().Total() != 0 || p.Window().Len() != 0 {
		t.Fatal("Reset left samples in the window")
	}
	for i := 0; i < windowLen; i++ {
		push(float64(i))
	}
	if len(p.Aligned()) != 2 {
		t.Fatal("Reset kept the overflow mark")
	}
}

func TestNewPyramidRejectsShortWindows(t *testing.T) {
	if _, err := NewPyramid(4, 2, true, true); !errors.Is(err, ErrWindowLen) {
		t.Fatalf("NewPyramid(4, 2) err = %v, want ErrWindowLen", err)
	}
}
