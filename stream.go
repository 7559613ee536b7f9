package mvg

import (
	"context"
	"fmt"
	"math"

	"mvg/internal/alert"
	"mvg/internal/core"
	"mvg/internal/ml"
	"mvg/internal/visibility"
)

// Stream is the sliding-window extraction engine: samples arrive one at a
// time through Push, and on every hop boundary the current window's MVG
// feature vector (Features) or prediction (Predict, when the stream was
// built from a Model) is available without re-running the batch pipeline
// on the whole window.
//
// # Incremental maintenance
//
// Both visibility criteria are local — whether (i,j) is an edge depends
// only on the samples between i and j — so sliding the window never
// rewires surviving pairs. When the pipeline's preprocessing preserves
// graph structure at the bit level (Config.NoDetrend and
// Config.NoZNormalize set, any scale mode but "amvg"; Incremental reports
// it) and the hop is small against the window (windowLen ≥ maintainRatio
// × hop), the stream maintains the window's T0 visibility graphs as ring
// graphs: appending a sample adds only the new rightmost vertex's edges
// (HVG via the monotone stack, amortized O(1); NVG via a backward
// max-slope scan with an early exit), and evicting the oldest removes
// only its incident edges. Each push also keeps the rings' subgraph
// counts current, so a hop closes them instead of counting the window's
// subgraphs and reads the other statistics off the rings in place. Such a
// stream also keeps a ring for every pyramid level T_k (k ≥ 1) that the
// configuration uses and whose blocks of 2^k samples the hop aligns with
// (2^k dividing both windowLen and hop). Features uses level k's ring
// whenever the window starts on a block boundary (after a multiple of 2^k
// pushes, which every hop is) and builds the level from the window
// otherwise.
//
// Any other stream keeps only the window's samples, and Features builds
// every graph from the materialized window as batch extraction does.
//
// # Determinism contract
//
// After every push, Features is bit-identical to Pipeline.Extract on the
// materialized window, in both modes — pinned by differential tests and
// the FuzzStreamAgainstBatch fuzz target (see docs/streaming.md).
//
// A Stream is a single-writer object: it must not be used from multiple
// goroutines concurrently. It holds private scratch, so it keeps working
// after Pipeline.Close (only pooled batch methods need the pool).
type Stream struct {
	pipe      *Pipeline
	model     *Model // nil for feature-only streams
	windowLen int
	hop       int

	incremental bool
	pyr         *visibility.Pyramid // the window, and its maintained levels
	pushed      int

	window []float64 // window materialization buffer
	sc     *core.Scratch
	rowIn  [][]float64 // single-row buffer for Predict

	alerts *alert.Evaluator // nil until SetAlerts; see alerting.go
}

// maintainRatio is the smallest windowLen/hop at which a
// structure-preserving stream keeps its graphs as rings, maintained per
// push, rather than building them from the window per hop. Maintenance
// costs a few vertex updates per sample, a rebuild the whole window once
// per hop; the measured crossover and the margin this constant keeps from
// it are in docs/perf.md.
const maintainRatio = 8

// NewStream returns a sliding-window extraction stream over this
// pipeline's configuration: windows of windowLen samples, emitting one
// feature point every hop samples once the first window is full. Invalid
// geometry returns a *ConfigError; a window too short for the configured
// scales returns an error matching ErrSeriesTooShort.
func (p *Pipeline) NewStream(windowLen, hop int) (*Stream, error) {
	if windowLen < 2 {
		return nil, &ConfigError{Field: "Stream.WindowLen", Value: fmt.Sprint(windowLen), Want: "at least 2"}
	}
	if hop < 1 || hop > windowLen {
		return nil, &ConfigError{Field: "Stream.Hop", Value: fmt.Sprint(hop), Want: fmt.Sprintf("1..windowLen (%d)", windowLen)}
	}
	if p.extractor.NumFeatures(windowLen) == 0 {
		return nil, fmt.Errorf("%w: windowLen=%d yields no scales under %q", ErrSeriesTooShort, windowLen, p.cfg.Scale)
	}
	cfg := p.cfg
	// Incremental maintenance requires bit-exact structure preservation:
	// window-relative preprocessing off (its transforms are structurally
	// invisible to visibility graphs anyway, but re-evaluating slope
	// comparisons on renormalized floats is not bit-exact) and a scale
	// mode in which T0 contributes features at all.
	incremental := cfg.NoDetrend && cfg.NoZNormalize && cfg.Scale != "amvg"
	maintain := incremental && windowLen >= maintainRatio*hop
	levels := 0
	if maintain {
		levels = visibility.AlignedLevels(windowLen, hop, p.extractor.NumScales(windowLen)-1)
	}
	pyr, err := visibility.NewPyramid(windowLen, levels, maintain && cfg.Graphs != "hvg", maintain && cfg.Graphs != "vg")
	if err != nil {
		return nil, err
	}
	return &Stream{
		pipe:        p,
		windowLen:   windowLen,
		hop:         hop,
		incremental: incremental,
		pyr:         pyr,
		sc:          core.NewScratch(),
	}, nil
}

// NewStream returns a sliding-window prediction stream bound to this
// model: the window length is the model's training length and Predict is
// available on every hop. See Pipeline.NewStream for the geometry rules.
func (m *Model) NewStream(hop int) (*Stream, error) {
	s, err := m.pipe.NewStream(m.seriesLen, hop)
	if err != nil {
		return nil, err
	}
	s.model = m
	return s, nil
}

// WindowLen returns the window length in samples.
func (s *Stream) WindowLen() int { return s.windowLen }

// Hop returns the hop: a feature point is emitted every hop samples once
// the first window is full.
func (s *Stream) Hop() int { return s.hop }

// Pushed returns how many samples have been accepted so far.
func (s *Stream) Pushed() int { return s.pushed }

// Incremental reports whether the stream's configuration preserves graph
// structure at the bit level (Config.NoDetrend and Config.NoZNormalize
// set, any scale mode but "amvg"), so that it can maintain its window
// graphs incrementally. Whether it does also depends on the hop: with
// windowLen < 8·hop it builds the graphs from the window on every hop, as
// a stream that reports false always does (see the type comment).
func (s *Stream) Incremental() bool { return s.incremental }

// Ready reports whether Features/Predict may be called: the first full
// window has been pushed.
func (s *Stream) Ready() bool { return s.pushed >= s.windowLen }

// Reset empties the stream for a new series, retaining all storage.
// Configured alert triggers keep their rules but return to StateOK with
// cleared debounce counters (and re-latch any auto baselines).
func (s *Stream) Reset() {
	s.pyr.Reset()
	s.pushed = 0
	if s.alerts != nil {
		s.alerts.Reset()
	}
}

// Push appends one sample to the stream, sliding the window once it is
// full. The returned flag reports whether this push landed on a hop
// boundary — i.e. Features/Predict now describe a window not yet emitted.
// Non-finite samples are rejected with ErrNonFiniteSample and leave the
// stream untouched.
func (s *Stream) Push(x float64) (hop bool, err error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false, fmt.Errorf("%w: %v at sample %d", ErrNonFiniteSample, x, s.pushed)
	}
	if err := s.pyr.Push(x); err != nil {
		return false, err
	}
	s.pushed++
	return s.pushed >= s.windowLen && (s.pushed-s.windowLen)%s.hop == 0, nil
}

// PushBatch pushes the samples in order and returns how many hop
// boundaries they crossed (features always describe the latest window; use
// per-sample Push to observe every hop). On error, samples before the
// offending one are already applied and the count reflects them.
func (s *Stream) PushBatch(xs []float64) (hops int, err error) {
	for i, x := range xs {
		h, err := s.Push(x)
		if err != nil {
			return hops, fmt.Errorf("sample %d of batch: %w", i, err)
		}
		if h {
			hops++
		}
	}
	return hops, nil
}

// Features extracts the MVG feature vector of the current window,
// bit-identical to Pipeline.Extract on the materialized window. It
// returns ErrStreamNotReady before the first full window. The returned
// slice is freshly allocated and owned by the caller.
func (s *Stream) Features() ([]float64, error) {
	if !s.Ready() {
		return nil, fmt.Errorf("%w: %d of %d samples", ErrStreamNotReady, s.pushed, s.windowLen)
	}
	// A pyramid that keeps no rings has every scale built from the window.
	s.window = s.pyr.Window().WindowInto(s.window)
	return s.pipe.extractor.ExtractWithRings(s.sc, s.window, s.pyr.Aligned())
}

// Predict classifies the current window on the stream's model, returning
// the most probable class and the full probability vector (the same
// tie-breaking as Model.PredictBatch). It returns ErrStreamNotReady before
// the first full window and an error for feature-only streams built with
// Pipeline.NewStream. The context is checked up front; extraction of a
// single window is not further interruptible.
func (s *Stream) Predict(ctx context.Context) (class int, proba []float64, err error) {
	if s.model == nil {
		return 0, nil, fmt.Errorf("mvg: stream is not bound to a model (built with Pipeline.NewStream; use Model.NewStream)")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
	}
	feats, err := s.Features()
	if err != nil {
		return 0, nil, err
	}
	if s.rowIn == nil {
		s.rowIn = make([][]float64, 1)
	}
	s.rowIn[0] = feats
	probas, err := s.model.classifyFeatures(s.rowIn)
	if err != nil {
		return 0, nil, err
	}
	return ml.Predict(probas)[0], probas[0], nil
}
