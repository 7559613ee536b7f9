package main

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// hursts are the Hurst exponents of the benchmark's fBm classes.
var hursts = []float64{0.3, 0.5, 0.7}

// fbm returns n samples of fractional Brownian motion with Hurst exponent h
// by spectral synthesis: Gaussian Fourier coefficients shaped to the power
// spectrum S(f) ∝ f^-(2h+1), inverted with an FFT twice the needed length
// so the output does not wrap around.
func fbm(n int, h float64, rng *rand.Rand) []float64 {
	m := 2
	for m < 2*n {
		m <<= 1
	}
	x := make([]complex128, m)
	for k := 1; k < m/2; k++ {
		amp := math.Pow(float64(k), -(2*h+1)/2)
		c := complex(amp*rng.NormFloat64(), amp*rng.NormFloat64())
		x[k] = c
		x[m-k] = cmplx.Conj(c)
	}
	fft(x)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(x[i])
	}
	return out
}

// fft is an in-place iterative radix-2 Cooley–Tukey transform; len(a)
// must be a power of two.
func fft(a []complex128) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		step := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < size/2; k++ {
				u, v := a[start+k], a[start+k+size/2]*w
				a[start+k], a[start+k+size/2] = u+v, u-v
				w *= step
			}
		}
	}
}

// fbmSet draws count series of n points, cycling through the Hurst
// classes; labels are the class indices.
func fbmSet(n, count int, rng *rand.Rand) (series [][]float64, labels []int) {
	for i := 0; i < count; i++ {
		c := i % len(hursts)
		series = append(series, fbm(n, hursts[c], rng))
		labels = append(labels, c)
	}
	return series, labels
}

// fbmPath returns n samples of a path built from independent fBm segments
// of segment samples each, every segment continuing from where the last
// ended: a long stream that visits many realizations of one exponent.
func fbmPath(n, segment int, h float64, rng *rand.Rand) []float64 {
	out := fbm(segment, h, rng)
	for len(out) < n {
		seg := fbm(segment+1, h, rng)
		base := out[len(out)-1] - seg[0]
		for _, x := range seg[1:] {
			out = append(out, base+x)
		}
	}
	return out[:n]
}
