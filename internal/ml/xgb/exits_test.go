package xgb

import (
	"math"
	"math/rand"
	"testing"
)

// checkChildWeightExits checks the two float facts the split scan exits
// by, for hessians hs, MinChildWeight mcw and a scan order perm: H sums
// hs in row order, as a node does, and HL sums them in perm's order, as
// a scan does. When H < 2*mcw, no prefix may leave both HL and H-HL at
// least mcw; and once H-HL falls below mcw, no later prefix may lift it
// back.
func checkChildWeightExits(t *testing.T, hs []float64, mcw float64, perm []int) {
	t.Helper()
	var H float64
	for _, h := range hs {
		H += h
	}
	leaf := H < 2*mcw
	var HL float64
	below := -1
	for k, i := range perm {
		HL += hs[i]
		HR := H - HL
		if leaf && HL >= mcw && HR >= mcw {
			t.Fatalf("H %v < 2*MinChildWeight %v, yet prefix %d of %d reads HL %v, H-HL %v",
				H, mcw, k+1, len(perm), HL, HR)
		}
		if below >= 0 && HR >= mcw {
			t.Fatalf("MinChildWeight %v: H-HL fell below it at prefix %d of %d, yet reads %v at prefix %d",
				mcw, below+1, len(perm), HR, k+1)
		}
		if below < 0 && HR < mcw {
			below = k
		}
	}
}

// nearULPs returns v moved by d units in the last place.
func nearULPs(v float64, d int) float64 {
	for ; d > 0; d-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; d < 0; d++ {
		v = math.Nextafter(v, 0)
	}
	return v
}

// exitHessians reads one hessian from every three bytes of data, as the
// trainer clamps them, at least 1e-16: by the first byte, tiny, within
// a few ulps of 2*mcw/k or of mcw/k for small k, where sums land on the
// two bounds, or anywhere up to four times mcw.
func exitHessians(data []byte, mcw float64) []float64 {
	var hs []float64
	for ; len(data) >= 3; data = data[3:] {
		kind, v, d := data[0]%4, float64(data[1]), int(data[2]%33)-16
		var h float64
		switch kind {
		case 0:
			h = 1e-16 * (1 + v/16)
		case 1:
			h = nearULPs(2*mcw/(1+float64(data[1]%8)), d)
		case 2:
			h = nearULPs(mcw/(1+float64(data[1]%4)), d)
		default:
			h = mcw * v / 64
		}
		hs = append(hs, max(h, 1e-16))
	}
	return hs
}

// exitWeight maps a fuzzed MinChildWeight into [1e-12, 1e12], so that no
// sum of exitHessians overflows, and 1 outside it.
func exitWeight(mcw float64) float64 {
	mcw = math.Abs(mcw)
	if !(mcw >= 1e-12 && mcw <= 1e12) {
		return 1
	}
	return mcw
}

func TestChildWeightExits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := []float64{0.01, 0.25, 1, 3, 1e-16, 1.5e-16}
	for i := 0; i < 20000; i++ {
		data := make([]byte, 3*(1+rng.Intn(40)))
		rng.Read(data)
		mcw := weights[rng.Intn(len(weights))]
		if rng.Intn(2) == 0 {
			mcw *= 1 + rng.Float64()
		}
		hs := exitHessians(data, mcw)
		checkChildWeightExits(t, hs, mcw, rng.Perm(len(hs)))
	}
}

// FuzzChildWeightExits runs checkChildWeightExits on fuzzed hessians
// (three bytes each, see exitHessians), MinChildWeight (see exitWeight)
// and a scan order drawn from seed.
func FuzzChildWeightExits(f *testing.F) {
	f.Add([]byte{1, 1, 16, 1, 1, 17, 2, 0, 15, 0, 9, 9}, 1.0, int64(1))
	f.Add([]byte{1, 0, 16, 2, 3, 20, 2, 3, 12, 2, 3, 16, 2, 3, 18, 3, 40, 0}, 0.25, int64(2))
	f.Add([]byte("tiny hessians between near-bound ones"), 3.0, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, mcw float64, seed int64) {
		mcw = exitWeight(mcw)
		hs := exitHessians(data, mcw)
		checkChildWeightExits(t, hs, mcw, rand.New(rand.NewSource(seed)).Perm(len(hs)))
	})
}
