// Package synth generates the deterministic synthetic dataset suite that
// stands in for the UCR archive, which the repository does not ship
// (README.md's "Tools" shows how cmd/tsgen writes it out in UCR format).
// Each family mimics a class of datasets from the paper's evaluation
// tables — ECG-like beats, appliance loads, chaotic maps, noise
// processes, planted shapelets, fractional Brownian motion, and so on —
// chosen so that both the graph-structural mechanism MVG exploits and
// the shape/subsequence mechanisms of the baselines are present in the
// benchmark.
//
// All generators are pure functions of (class, *rand.Rand); a fixed seed
// reproduces the full suite bit-for-bit.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"mvg/internal/ucr"
)

// Family describes one synthetic dataset generator.
type Family struct {
	// Name identifies the dataset in reports (Table 2/3 style rows).
	Name string
	// Classes, Length, TrainSize, TestSize mirror the paper's per-dataset
	// columns (#Cls, Dim., #Train, #Test).
	Classes   int
	Length    int
	TrainSize int
	TestSize  int
	// Imbalanced marks families whose training split intentionally skews
	// class frequencies (exercising the oversampling path).
	Imbalanced bool
	// Motivation documents which mechanism the family exercises.
	Motivation string
	// gen draws one series of the given class.
	gen func(class int, rng *rand.Rand) []float64
}

// Generate materializes deterministic train/test splits. The two splits
// use distinct RNG streams derived from seed.
func (f Family) Generate(seed int64) (train, test *ucr.Dataset) {
	train = f.split(f.TrainSize, rand.New(rand.NewSource(seed)), f.Imbalanced)
	test = f.split(f.TestSize, rand.New(rand.NewSource(seed+0x9e3779b9)), false)
	return train, test
}

func (f Family) split(n int, rng *rand.Rand, imbalanced bool) *ucr.Dataset {
	d := &ucr.Dataset{Name: f.Name}
	for c := 0; c < f.Classes; c++ {
		d.ClassNames = append(d.ClassNames, fmt.Sprintf("%d", c+1))
	}
	for i := 0; i < n; i++ {
		var class int
		if imbalanced {
			// Skew towards class 0: class c has weight 2^{-c}.
			r := rng.Float64() * (2 - math.Pow(2, float64(1-f.Classes)))
			acc := 0.0
			for c := 0; c < f.Classes; c++ {
				acc += math.Pow(2, -float64(c))
				if r < acc {
					class = c
					break
				}
				class = c
			}
		} else {
			class = i % f.Classes
		}
		d.Series = append(d.Series, f.gen(class, rng))
		d.Labels = append(d.Labels, class)
	}
	// Shuffle sample order so folds are not trivially stratified.
	rng.Shuffle(len(d.Series), func(a, b int) {
		d.Series[a], d.Series[b] = d.Series[b], d.Series[a]
		d.Labels[a], d.Labels[b] = d.Labels[b], d.Labels[a]
	})
	return d
}

// EmitRows streams rows synthetic series of the family to fn without
// ever materializing the dataset: classes cycle round-robin (the
// balanced draw of split, minus the shuffle — bulk consumers chunk the
// stream and don't care about sample order), labels are the family's
// usual "1".."K" tokens, and the whole emission is a pure function of
// (family, rows, seed), so two runs produce byte-identical streams. This
// is the generator behind `tsgen -rows`: datasets of millions of rows
// cost one series of memory at a time.
func (f Family) EmitRows(rows int, seed int64, fn func(label string, series []float64) error) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		class := i % f.Classes
		if err := fn(fmt.Sprintf("%d", class+1), f.gen(class, rng)); err != nil {
			return err
		}
	}
	return nil
}

// --- waveform helpers ---

func addNoise(t []float64, sigma float64, rng *rand.Rand) []float64 {
	for i := range t {
		t[i] += sigma * rng.NormFloat64()
	}
	return t
}

// gaussBump adds a Gaussian bump of the given amplitude/center/width.
func gaussBump(t []float64, amp, center, width float64) {
	for i := range t {
		d := (float64(i) - center) / width
		t[i] += amp * math.Exp(-d*d/2)
	}
}

// Suite returns the full 13-family registry, sized to echo the paper's
// dataset table shapes while staying laptop-friendly.
func Suite() []Family {
	return []Family{
		ecgBeats(), applianceLoad(), chaosMaps(), noiseFamilies(),
		plantedShapelets(), hurstWalks(), freqSines(), warpedShapes(),
		randomWalkTails(), trendSeasonal(), piecewiseLevels(),
		amSignals(), burstNoise(),
	}
}

// ByName looks up one family.
func ByName(name string) (Family, error) {
	for _, f := range Suite() {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("synth: unknown dataset %q", name)
}

// Names lists the suite's dataset names in order.
func Names() []string {
	fams := Suite()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Name
	}
	return out
}

// ecgBeats mimics the ECG datasets (ECG5000 etc.): a P-QRS-T beat built
// from Gaussian bumps; classes alter the T-wave and ST segment the way
// arrhythmia classes do.
func ecgBeats() Family {
	return Family{
		Name: "SynthECG", Classes: 3, Length: 140, TrainSize: 60, TestSize: 150,
		Motivation: "medical motivation from the paper's introduction; global shape + local deformation",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 140
			t := make([]float64, n)
			jitter := func(s float64) float64 { return s * (1 + 0.05*rng.NormFloat64()) }
			// P wave, QRS complex, T wave.
			gaussBump(t, jitter(0.25), jitter(25), jitter(5))
			gaussBump(t, jitter(-0.3), jitter(42), jitter(2.5))
			gaussBump(t, jitter(2.0), jitter(48), jitter(3))
			gaussBump(t, jitter(-0.4), jitter(55), jitter(3))
			switch class {
			case 0: // normal T wave
				gaussBump(t, jitter(0.6), jitter(90), jitter(9))
			case 1: // inverted, delayed T wave
				gaussBump(t, jitter(-0.55), jitter(100), jitter(11))
			default: // ST elevation with flattened, widened T
				for i := 58; i < 95 && i < n; i++ {
					t[i] += 0.35
				}
				gaussBump(t, jitter(0.3), jitter(95), jitter(16))
			}
			return addNoise(t, 0.07, rng)
		},
	}
}

// applianceLoad mimics the electric-device datasets: rectangular duty
// cycles whose count/width/level differ per device class.
func applianceLoad() Family {
	return Family{
		Name: "ApplianceLoad", Classes: 3, Length: 240, TrainSize: 75, TestSize: 150,
		Motivation: "industrial motivation (ElectricDevices/Kitchen appliances rows); HVG-friendly local structure",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 240
			t := make([]float64, n)
			var pulses, width int
			var level float64
			switch class {
			case 0: // fridge-like: many short cycles
				pulses, width, level = 6+rng.Intn(3), 12, 1.0
			case 1: // oven-like: one long flat plateau
				pulses, width, level = 1, 90+rng.Intn(30), 2.2
			default: // washer-like: bursts of alternating load
				pulses, width, level = 3+rng.Intn(2), 30, 1.5
			}
			for p := 0; p < pulses; p++ {
				start := rng.Intn(n - width)
				for i := start; i < start+width; i++ {
					v := level
					if class == 2 && (i/6)%2 == 0 {
						v = level * 0.4 // agitation cycling
					}
					t[i] += v * (1 + 0.05*rng.NormFloat64())
				}
			}
			return addNoise(t, 0.05, rng)
		},
	}
}

// chaosMaps follows the classic visibility-graph literature (Lacasa et
// al.; Iacovacci & Lacasa motif profiles): fully chaotic logistic maps vs
// white noise vs noisy chaos are distinguishable by VG motif statistics.
func chaosMaps() Family {
	return Family{
		Name: "ChaosMaps", Classes: 3, Length: 200, TrainSize: 60, TestSize: 150,
		Motivation: "the VG literature's flagship application: motif profiles separate chaos from noise",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 200
			t := make([]float64, n)
			switch class {
			case 0: // fully chaotic logistic map x' = 4x(1-x)
				x := 0.1 + 0.8*rng.Float64()
				for i := range t {
					x = 4 * x * (1 - x)
					t[i] = x
				}
			case 1: // white uniform noise (same marginal support)
				for i := range t {
					t[i] = rng.Float64()
				}
			default: // noisy chaotic map
				x := 0.1 + 0.8*rng.Float64()
				for i := range t {
					x = 4 * x * (1 - x)
					t[i] = 0.7*x + 0.3*rng.Float64()
				}
			}
			return t
		},
	}
}

// noiseFamilies separates serial-correlation structures that share
// identical marginals: white vs AR(1) vs smoothed noise.
func noiseFamilies() Family {
	return Family{
		Name: "NoiseFamilies", Classes: 3, Length: 150, TrainSize: 60, TestSize: 120,
		Motivation: "autocorrelation-only differences: no global shape, no subsequence; graph statistics must carry the signal",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 150
			t := make([]float64, n)
			switch class {
			case 0:
				for i := range t {
					t[i] = rng.NormFloat64()
				}
			case 1: // AR(1), φ = 0.8
				x := rng.NormFloat64()
				for i := range t {
					x = 0.8*x + 0.6*rng.NormFloat64()
					t[i] = x
				}
			default: // moving-average smoothed noise (window 5)
				raw := make([]float64, n+4)
				for i := range raw {
					raw[i] = rng.NormFloat64()
				}
				for i := range t {
					s := 0.0
					for k := 0; k < 5; k++ {
						s += raw[i+k]
					}
					t[i] = s / math.Sqrt(5)
				}
			}
			return t
		},
	}
}

// plantedShapelets is shapelet-method home turf: a class-defining local
// pattern at a random position on a noise background.
func plantedShapelets() Family {
	return Family{
		Name: "EngineNoise", Classes: 3, Length: 128, TrainSize: 60, TestSize: 150,
		Motivation: "FordA/ShapeletSim analogue: one local defect pattern defines the class",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 128
			t := make([]float64, n)
			for i := range t {
				t[i] = 0.4 * rng.NormFloat64()
			}
			pos := 10 + rng.Intn(n-42)
			switch class {
			case 0: // smooth knock: single wide bump
				gaussBump(t, 2.2, float64(pos+12), 5)
			case 1: // double spike
				gaussBump(t, 2.4, float64(pos+6), 1.6)
				gaussBump(t, -2.4, float64(pos+16), 1.6)
			default: // sharp sawtooth run
				for i := 0; i < 24 && pos+i < n; i++ {
					t[pos+i] += 1.8 * (float64(i%8)/4 - 1)
				}
			}
			return t
		},
	}
}

// hurstWalks generates power-law processes with different Hurst exponents
// via spectral synthesis — the VG paper's original use case (estimating H).
// Every series sums the same n/2 cosine and sine waves with its own
// weights, so the family tabulates the waves once, on its first series,
// and each series only weighs them: the same math.Cos and math.Sin calls
// on the same arguments as evaluating them per series, hence the same
// bits. The 512 KiB table lives as long as the Family value.
func hurstWalks() Family {
	const n = 256
	type wave struct{ cos, sin [n]float64 }
	waves := sync.OnceValue(func() []wave {
		ws := make([]wave, n/2)
		for k := 1; k <= n/2; k++ {
			w := 2 * math.Pi * float64(k) / float64(n)
			for i := range n {
				ws[k-1].cos[i] = math.Cos(w * float64(i))
				ws[k-1].sin[i] = math.Sin(w * float64(i))
			}
		}
		return ws
	})
	return Family{
		Name: "HurstWalks", Classes: 3, Length: n, TrainSize: 60, TestSize: 120,
		Motivation: "fractality: VGs were introduced to estimate Hurst exponents of fBm",
		gen: func(class int, rng *rand.Rand) []float64 {
			ws := waves()
			h := []float64{0.25, 0.5, 0.75}[class]
			// Spectral synthesis: S(f) ∝ f^{-(2H+1)}.
			t := make([]float64, n)
			for k := 1; k <= n/2; k++ {
				amp := math.Pow(float64(k), -(2*h+1)/2)
				phase := rng.Float64() * 2 * math.Pi
				a := amp * math.Cos(phase)
				b := amp * math.Sin(phase)
				c, s := &ws[k-1].cos, &ws[k-1].sin
				for i := range t {
					t[i] += a*c[i] + b*s[i]
				}
			}
			return t
		},
	}
}

// freqSines separates classes by dominant frequency with phase jitter —
// easy for global-similarity methods, a control dataset.
func freqSines() Family {
	return Family{
		Name: "FreqSines", Classes: 3, Length: 128, TrainSize: 45, TestSize: 120,
		Motivation: "control: global periodic structure that distance baselines handle well",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 128
			t := make([]float64, n)
			freq := []float64{3, 5, 8}[class] * (1 + 0.04*rng.NormFloat64())
			phase := rng.Float64() * 2 * math.Pi
			for i := range t {
				t[i] = math.Sin(2*math.Pi*freq*float64(i)/float64(n) + phase)
			}
			return addNoise(t, 0.15, rng)
		},
	}
}

// warpedShapes separates waveform families under random smooth time
// warping — DTW home turf.
func warpedShapes() Family {
	return Family{
		Name: "WarpedShapes", Classes: 2, Length: 128, TrainSize: 40, TestSize: 100,
		Motivation: "alignment distortion: tests the paper's claim that MVG is agnostic to warping",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 128
			t := make([]float64, n)
			// Smooth monotone warp of [0,1].
			k1 := 0.3 * rng.NormFloat64()
			k2 := 0.2 * rng.NormFloat64()
			warp := func(u float64) float64 {
				return u + k1*math.Sin(math.Pi*u)/math.Pi + k2*math.Sin(2*math.Pi*u)/(2*math.Pi)
			}
			for i := range t {
				u := warp(float64(i) / float64(n-1))
				if class == 0 {
					t[i] = math.Sin(2 * math.Pi * 4 * u)
				} else {
					// Triangular wave of the same frequency.
					x := math.Mod(4*u, 1)
					t[i] = 4*math.Abs(x-0.5) - 1
				}
			}
			return addNoise(t, 0.1, rng)
		},
	}
}

// randomWalkTails separates detrended random walks by step distribution:
// Gaussian vs heavy-tailed vs uniform steps produce different VG hubs.
func randomWalkTails() Family {
	return Family{
		Name: "WalkTails", Classes: 3, Length: 200, TrainSize: 60, TestSize: 120,
		Motivation: "step-distribution tails: extreme increments create visibility hubs",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 200
			t := make([]float64, n)
			x := 0.0
			for i := range t {
				var step float64
				switch class {
				case 0:
					step = rng.NormFloat64()
				case 1: // Laplace (heavy tails)
					u := rng.Float64() - 0.5
					step = -math.Copysign(math.Log(1-2*math.Abs(u)), u) / math.Sqrt2
				default: // uniform (light tails)
					step = (rng.Float64()*2 - 1) * math.Sqrt(3)
				}
				x += step
				t[i] = x
			}
			return t
		},
	}
}

// trendSeasonal mixes a random linear trend (removed by the pipeline's
// detrending) with seasonal cycles whose period is the class.
func trendSeasonal() Family {
	return Family{
		Name: "TrendSeasonal", Classes: 3, Length: 192, TrainSize: 60, TestSize: 120,
		Motivation: "non-stationarity: exercises the detrending pre-step the paper prescribes",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 192
			t := make([]float64, n)
			period := []float64{8, 16, 32}[class]
			slope := rng.NormFloat64() * 0.05
			amp := 1 + 0.2*rng.NormFloat64()
			phase := rng.Float64() * 2 * math.Pi
			for i := range t {
				t[i] = slope*float64(i) + amp*math.Sin(2*math.Pi*float64(i)/period+phase)
			}
			return addNoise(t, 0.2, rng)
		},
	}
}

// piecewiseLevels separates classes by the number of regime changes.
func piecewiseLevels() Family {
	return Family{
		Name: "RegimeLevels", Classes: 3, Length: 160, TrainSize: 60, TestSize: 120,
		Motivation: "piecewise-constant structure (Mallat-style): segment counts change HVG statistics",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 160
			segments := []int{2, 5, 10}[class]
			cuts := make([]int, segments-1)
			for i := range cuts {
				cuts[i] = 1 + rng.Intn(n-2)
			}
			sort.Ints(cuts)
			t := make([]float64, n)
			level := rng.NormFloat64()
			seg := 0
			for i := range t {
				if seg < len(cuts) && i == cuts[seg] {
					level += 0.8 + math.Abs(rng.NormFloat64())
					if rng.Float64() < 0.5 {
						level -= 2 * (0.8 + math.Abs(rng.NormFloat64()))
					}
					seg++
				}
				t[i] = level
			}
			return addNoise(t, 0.12, rng)
		},
	}
}

// amSignals separates amplitude-modulation rates on a common carrier.
func amSignals() Family {
	return Family{
		Name: "AMSignals", Classes: 2, Length: 256, TrainSize: 50, TestSize: 100,
		Motivation: "InsectWingbeatSound analogue: envelope structure at multiple scales",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 256
			t := make([]float64, n)
			carrier := 24.0 * (1 + 0.02*rng.NormFloat64())
			mod := []float64{2, 6}[class] * (1 + 0.05*rng.NormFloat64())
			phase := rng.Float64() * 2 * math.Pi
			for i := range t {
				u := float64(i) / float64(n)
				env := 0.55 + 0.45*math.Sin(2*math.Pi*mod*u+phase)
				t[i] = env * math.Sin(2*math.Pi*carrier*u)
			}
			return addNoise(t, 0.08, rng)
		},
	}
}

// burstNoise is intentionally imbalanced: rare spike bursts over noise.
func burstNoise() Family {
	return Family{
		Name: "BurstNoise", Classes: 2, Length: 180, TrainSize: 60, TestSize: 120,
		Imbalanced: true,
		Motivation: "class imbalance: exercises random oversampling (Section 3.2)",
		gen: func(class int, rng *rand.Rand) []float64 {
			n := 180
			t := make([]float64, n)
			for i := range t {
				t[i] = 0.5 * rng.NormFloat64()
			}
			bursts := 2
			if class == 1 {
				bursts = 7
			}
			for b := 0; b < bursts; b++ {
				pos := rng.Intn(n - 4)
				amp := 2.5 + rng.Float64()
				sign := 1.0
				if rng.Float64() < 0.5 {
					sign = -1
				}
				for k := 0; k < 4; k++ {
					t[pos+k] += sign * amp * math.Exp(-float64(k))
				}
			}
			return t
		},
	}
}
