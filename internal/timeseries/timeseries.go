// Package timeseries provides the numeric time-series substrate used by the
// MVG pipeline: validation, normalization, detrending, piecewise aggregate
// approximation (PAA) and its halving step, and summary statistics. The
// multiscale pyramid of Definitions 3.1/3.2 is built from HalveInto by
// core.Extractor.
//
// A time series is a plain []float64 (Definition 2.1 in the paper); the
// package works on slices directly so callers can reuse buffers.
package timeseries

import (
	"errors"
	"fmt"
	"math"

	"mvg/internal/buf"
)

// Common errors returned by validation helpers.
var (
	ErrEmpty      = errors.New("timeseries: empty series")
	ErrTooShort   = errors.New("timeseries: series too short")
	ErrNonFinite  = errors.New("timeseries: series contains NaN or Inf")
	ErrBadSegment = errors.New("timeseries: invalid segment count")
)

// Validate checks that t is non-empty and contains only finite values.
func Validate(t []float64) error {
	if len(t) == 0 {
		return ErrEmpty
	}
	for i, v := range t {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: index %d is %v", ErrNonFinite, i, v)
		}
	}
	return nil
}

// Mean returns the arithmetic mean of t, or 0 for an empty series.
func Mean(t []float64) float64 {
	if len(t) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range t {
		sum += v
	}
	return sum / float64(len(t))
}

// Std returns the population standard deviation of t.
func Std(t []float64) float64 {
	if len(t) == 0 {
		return 0
	}
	mu := Mean(t)
	ss := 0.0
	for _, v := range t {
		d := v - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(t)))
}

// MinMax returns the minimum and maximum values of t.
// It returns (0, 0) for an empty series.
func MinMax(t []float64) (min, max float64) {
	if len(t) == 0 {
		return 0, 0
	}
	min, max = t[0], t[0]
	for _, v := range t[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// ZNormalize returns a z-normalized copy of t: zero mean, unit variance.
// Near-constant series (σ below eps) are returned as all zeros rather than
// amplifying numeric noise, matching common UCR preprocessing.
func ZNormalize(t []float64) []float64 {
	return ZNormalizeInto(make([]float64, len(t)), t)
}

// ZNormalizeInto is ZNormalize writing into dst, which must have len(t).
// dst may alias t for in-place normalization. It returns dst.
func ZNormalizeInto(dst, t []float64) []float64 {
	const eps = 1e-12
	mu := Mean(t)
	sigma := Std(t)
	if sigma < eps {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, v := range t {
		dst[i] = (v - mu) / sigma
	}
	return dst
}

// Detrend returns a copy of t with the least-squares linear trend removed.
// The paper notes VGs are unsuitable for series with monotonic trends; this
// is the recommended pre-processing step before VG construction.
func Detrend(t []float64) []float64 {
	return DetrendInto(make([]float64, len(t)), t)
}

// DetrendInto is Detrend writing into dst, which must have len(t). dst may
// alias t for in-place detrending. It returns dst.
func DetrendInto(dst, t []float64) []float64 {
	n := len(t)
	out := dst
	if n < 2 {
		copy(out, t)
		return out
	}
	// Least squares fit of v = a + b*i.
	var sx, sy, sxx, sxy float64
	for i, v := range t {
		x := float64(i)
		sx += x
		sy += v
		sxx += x * x
		sxy += x * v
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	var a, b float64
	if den != 0 {
		b = (fn*sxy - sx*sy) / den
		a = (sy - b*sx) / fn
	} else {
		a = sy / fn
	}
	for i, v := range t {
		out[i] = v - (a + b*float64(i))
	}
	return out
}

// PAA computes the Piecewise Aggregate Approximation of t with s segments
// (equation 1 of the paper). Segment boundaries follow the fractional
// scheme of Keogh & Pazzani so that n need not be divisible by s: sample k
// contributes to segment floor(k*s/n) with proportional weighting at
// boundaries handled by exact fractional assignment.
func PAA(t []float64, s int) ([]float64, error) {
	return PAAInto(nil, t, s)
}

// PAAInto is PAA writing into dst's storage (grown as needed, so a reused
// buffer makes repeated downscaling allocation-free). dst must not alias t.
// It returns the filled slice of length s.
func PAAInto(dst []float64, t []float64, s int) ([]float64, error) {
	n := len(t)
	if n == 0 {
		return nil, ErrEmpty
	}
	if s <= 0 || s > n {
		return nil, fmt.Errorf("%w: s=%d for n=%d", ErrBadSegment, s, n)
	}
	out := buf.Grow(dst, s)
	if s == n {
		copy(out, t)
		return out, nil
	}
	if n%s == 0 {
		// Fast path: equal-size integer segments.
		w := n / s
		for i := 0; i < s; i++ {
			sum := 0.0
			for k := i * w; k < (i+1)*w; k++ {
				sum += t[k]
			}
			out[i] = sum / float64(w)
		}
		return out, nil
	}
	// General fractional segmentation: segment i covers the real interval
	// [i*n/s, (i+1)*n/s); each sample contributes the overlapping fraction.
	ratio := float64(n) / float64(s)
	for i := 0; i < s; i++ {
		lo := float64(i) * ratio
		hi := float64(i+1) * ratio
		sum := 0.0
		for k := int(lo); k < n && float64(k) < hi; k++ {
			l := math.Max(lo, float64(k))
			r := math.Min(hi, float64(k+1))
			if r > l {
				sum += t[k] * (r - l)
			}
		}
		out[i] = sum / ratio
	}
	return out, nil
}

// HalveInto is PAA downscaling by a factor of exactly two (the multiscale
// step), writing into dst's storage (grown as needed). An odd trailing
// sample is averaged into the final segment. dst must not alias t.
func HalveInto(dst, t []float64) ([]float64, error) {
	n := len(t)
	if n < 2 {
		return nil, ErrTooShort
	}
	return PAAInto(dst, t, n/2)
}

// DefaultTau is the default minimum length for multiscale approximations
// (Definition 3.1): scales shorter than this are considered trivial graphs
// and are not generated. The paper suggests τ = 15 as an optimization; a
// smaller threshold is also valid since feature selection happens during
// classification (core.Options.Tau: zero means this default, a negative
// value means no threshold).
const DefaultTau = 15
