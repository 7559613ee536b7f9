package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		in      []float64
		wantErr bool
	}{
		{"empty", nil, true},
		{"single", []float64{1}, false},
		{"normal", []float64{1, 2, 3}, false},
		{"nan", []float64{1, math.NaN(), 3}, true},
		{"posinf", []float64{1, math.Inf(1)}, true},
		{"neginf", []float64{math.Inf(-1)}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := Validate(tc.in); (err != nil) != tc.wantErr {
				t.Fatalf("Validate(%v) err=%v, wantErr=%v", tc.in, err, tc.wantErr)
			}
		})
	}
}

func TestMeanStdMinMax(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Std(x); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", got)
	}
	lo, hi := MinMax(x)
	if lo != 2 || hi != 9 {
		t.Errorf("MinMax = %v,%v want 2,9", lo, hi)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Errorf("empty series stats should be 0")
	}
}

func TestZNormalize(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	z := ZNormalize(x)
	if !almostEqual(Mean(z), 0, 1e-12) {
		t.Errorf("mean after znorm = %v", Mean(z))
	}
	if !almostEqual(Std(z), 1, 1e-12) {
		t.Errorf("std after znorm = %v", Std(z))
	}
	// Constant series → all zeros, not NaN.
	for _, v := range ZNormalize([]float64{3, 3, 3}) {
		if v != 0 {
			t.Errorf("constant series should normalize to zeros, got %v", v)
		}
	}
}

func TestDetrendRemovesLinearTrend(t *testing.T) {
	n := 100
	x := make([]float64, n)
	for i := range x {
		x[i] = 3.5 + 0.25*float64(i) + math.Sin(float64(i)/5)
	}
	d := Detrend(x)
	// The residual must have (near-)zero mean and no linear correlation
	// with the index.
	if !almostEqual(Mean(d), 0, 1e-9) {
		t.Errorf("detrended mean = %v", Mean(d))
	}
	var sxy float64
	for i, v := range d {
		sxy += (float64(i) - float64(n-1)/2) * v
	}
	if !almostEqual(sxy, 0, 1e-6) {
		t.Errorf("detrended series still correlates with time: %v", sxy)
	}
	// A perfectly linear ramp detrends to ~zero everywhere.
	ramp := make([]float64, 50)
	for i := range ramp {
		ramp[i] = -2 + 7*float64(i)
	}
	for _, v := range Detrend(ramp) {
		if !almostEqual(v, 0, 1e-9) {
			t.Fatalf("ramp residual %v != 0", v)
		}
	}
}

func TestPAAExactDivision(t *testing.T) {
	x := []float64{1, 3, 5, 7, 2, 4, 6, 8}
	got, err := PAA(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 6, 3, 7}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("PAA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPAAFractional(t *testing.T) {
	// n=5, s=2: segments cover [0,2.5) and [2.5,5).
	x := []float64{1, 2, 3, 4, 5}
	got, err := PAA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	want0 := (1 + 2 + 0.5*3) / 2.5
	want1 := (0.5*3 + 4 + 5) / 2.5
	if !almostEqual(got[0], want0, 1e-12) || !almostEqual(got[1], want1, 1e-12) {
		t.Errorf("PAA = %v, want [%v %v]", got, want0, want1)
	}
}

func TestPAAErrors(t *testing.T) {
	if _, err := PAA(nil, 1); err == nil {
		t.Error("expected error for empty series")
	}
	if _, err := PAA([]float64{1, 2}, 0); err == nil {
		t.Error("expected error for s=0")
	}
	if _, err := PAA([]float64{1, 2}, 3); err == nil {
		t.Error("expected error for s>n")
	}
	got, err := PAA([]float64{1, 2}, 2)
	if err != nil || got[0] != 1 || got[1] != 2 {
		t.Errorf("identity PAA failed: %v %v", got, err)
	}
}

func TestPAAMeanPreservationProperty(t *testing.T) {
	// PAA with exact division preserves the global mean.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		p, err := PAA(x, 16)
		if err != nil {
			return false
		}
		return almostEqual(Mean(p), Mean(x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEuclidean(t *testing.T) {
	d, err := Euclidean([]float64{0, 0}, []float64{3, 4})
	if err != nil || !almostEqual(d, 5, 1e-12) {
		t.Errorf("Euclidean = %v, %v", d, err)
	}
	if _, err := Euclidean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length mismatch error")
	}
	sq, _ := SquaredEuclidean([]float64{0, 0}, []float64{3, 4})
	if !almostEqual(sq, 25, 1e-12) {
		t.Errorf("SquaredEuclidean = %v", sq)
	}
}

func TestDTWIdentityAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	d0, err := DTW(a, a, -1)
	if err != nil || !almostEqual(d0, 0, 1e-12) {
		t.Errorf("DTW(a,a) = %v, %v", d0, err)
	}
	dab, _ := DTW(a, b, -1)
	dba, _ := DTW(b, a, -1)
	if !almostEqual(dab, dba, 1e-9) {
		t.Errorf("DTW not symmetric: %v vs %v", dab, dba)
	}
}

func TestDTWNotWorseThanEuclidean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 32)
		b := make([]float64, 32)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		dtw, err1 := DTW(a, b, -1)
		ed, err2 := Euclidean(a, b)
		return err1 == nil && err2 == nil && dtw <= ed+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDTWWindowMonotone(t *testing.T) {
	// Wider windows can only lower (or keep) the distance.
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	prev := math.Inf(1)
	for _, w := range []int{0, 1, 2, 5, 10, 25, 50} {
		d, err := DTW(a, b, w)
		if err != nil {
			t.Fatal(err)
		}
		if d > prev+1e-9 {
			t.Errorf("DTW window=%d gave %v > previous %v", w, d, prev)
		}
		prev = d
	}
	// window 0 equals Euclidean for equal lengths.
	d0, _ := DTW(a, b, 0)
	ed, _ := Euclidean(a, b)
	if !almostEqual(d0, ed, 1e-9) {
		t.Errorf("DTW(w=0)=%v != Euclidean=%v", d0, ed)
	}
}

func TestDTWShiftInvariance(t *testing.T) {
	// A shifted copy should have much smaller DTW than Euclidean distance.
	n := 64
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = math.Sin(2 * math.Pi * float64(i) / 16)
		b[i] = math.Sin(2 * math.Pi * float64(i+2) / 16)
	}
	// Boundary points cannot warp away, so DTW is small but non-zero.
	dtw, _ := DTW(a, b, -1)
	ed, _ := Euclidean(a, b)
	if dtw > ed/3 {
		t.Errorf("DTW=%v should be far below ED=%v for phase shift", dtw, ed)
	}
}

func TestDTWDifferentLengths(t *testing.T) {
	a := []float64{0, 1, 2, 3, 4}
	b := []float64{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	d, err := DTW(a, b, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 0, 1e-12) {
		t.Errorf("DTW of stretched copy = %v, want 0", d)
	}
	if _, err := DTW(nil, b, -1); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestEnvelopeAndLBKeogh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 64
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, n)
		c := make([]float64, n)
		for i := range q {
			q[i] = rng.NormFloat64()
			c[i] = rng.NormFloat64()
		}
		w := 5
		up, lo := Envelope(c, w)
		for i := range c {
			if up[i] < c[i] || lo[i] > c[i] {
				t.Fatalf("envelope does not contain series at %d", i)
			}
		}
		lb, err := LBKeogh(q, up, lo)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DTW(q, c, w)
		if err != nil {
			t.Fatal(err)
		}
		if lb > d+1e-9 {
			t.Fatalf("LB_Keogh %v exceeds DTW %v", lb, d)
		}
	}
}

func TestEnvelopeBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	w := 3
	up, lo := Envelope(x, w)
	for i := range x {
		wantHi := math.Inf(-1)
		wantLo := math.Inf(1)
		for j := maxInt(0, i-w); j <= minInt(len(x)-1, i+w); j++ {
			wantHi = math.Max(wantHi, x[j])
			wantLo = math.Min(wantLo, x[j])
		}
		if !almostEqual(up[i], wantHi, 1e-12) || !almostEqual(lo[i], wantLo, 1e-12) {
			t.Fatalf("envelope[%d] = (%v,%v), want (%v,%v)", i, up[i], lo[i], wantHi, wantLo)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
