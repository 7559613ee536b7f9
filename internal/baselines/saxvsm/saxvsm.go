// Package saxvsm implements the SAX-VSM time series classifier (Senin &
// Malinchik 2013), one of the paper's five comparison baselines: every
// class's training series are pooled into a bag of sliding-window SAX
// words, the bags become TF-IDF weight vectors, and test series are
// assigned to the class whose vector has the highest cosine similarity
// with the test word bag.
package saxvsm

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"mvg/internal/ml"
	"mvg/internal/sax"
)

// Params configures the symbolic transform.
type Params struct {
	// Window is the sliding-window length; 0 means a third of the series
	// length at fit time (clamped to at least Segments).
	Window int
	// Segments is the PAA word length (default 8).
	Segments int
	// Alphabet is the SAX cardinality (default 4).
	Alphabet int
}

func (p Params) withDefaults() Params {
	if p.Segments <= 0 {
		p.Segments = 8
	}
	if p.Alphabet <= 0 {
		p.Alphabet = 4
	}
	return p
}

// Model is a fitted SAX-VSM classifier implementing ml.Classifier.
type Model struct {
	P       Params
	classes int
	window  int
	enc     *sax.Encoder
	// tfidf[c][word] is the class-c TF-IDF weight of the word.
	tfidf []map[string]float64
	// norms[c] caches ‖tfidf[c]‖.
	norms []float64
}

// New returns an untrained model.
func New(p Params) *Model { return &Model{P: p} }

// Clone returns a fresh untrained model with identical parameters.
func (m *Model) Clone() ml.Classifier { return &Model{P: m.P} }

// Name implements ml.Named.
func (m *Model) Name() string {
	p := m.P.withDefaults()
	return fmt.Sprintf("saxvsm(w=%d,paa=%d,a=%d)", p.Window, p.Segments, p.Alphabet)
}

// Fit pools per-class word bags and computes TF-IDF weights.
func (m *Model) Fit(X [][]float64, y []int, classes int) error {
	if err := ml.CheckTrainingSet(X, y, classes); err != nil {
		return err
	}
	p := m.P.withDefaults()
	m.P = p
	m.classes = classes
	m.window = p.Window
	if m.window <= 0 {
		m.window = len(X[0]) / 3
	}
	if m.window < p.Segments {
		m.window = p.Segments
	}
	if m.window > len(X[0]) {
		m.window = len(X[0])
	}
	enc, err := sax.NewEncoder(p.Segments, p.Alphabet)
	if err != nil {
		return err
	}
	m.enc = enc

	// Per-class term frequencies.
	bags := make([]map[string]float64, classes)
	for c := range bags {
		bags[c] = map[string]float64{}
	}
	for i, series := range X {
		words, err := enc.SlidingWords(series, m.window, true)
		if err != nil {
			return fmt.Errorf("saxvsm: series %d: %w", i, err)
		}
		for _, w := range words {
			bags[y[i]][w]++
		}
	}

	// Document frequency across class corpora.
	df := map[string]int{}
	for _, bag := range bags {
		for w := range bag {
			df[w]++
		}
	}

	// TF-IDF with log-scaled tf and the standard SAX-VSM idf:
	// weight = (1+log tf) · log(C/df). Words present in every class get
	// zero weight and are dropped.
	m.tfidf = make([]map[string]float64, classes)
	m.norms = make([]float64, classes)
	for c, bag := range bags {
		vec := map[string]float64{}
		norm := 0.0
		for _, w := range slices.Sorted(maps.Keys(bag)) {
			idf := math.Log(float64(classes) / float64(df[w]))
			if idf <= 0 {
				continue
			}
			v := (1 + math.Log(bag[w])) * idf
			vec[w] = v
			norm += v * v
		}
		m.tfidf[c] = vec
		m.norms[c] = math.Sqrt(norm)
	}
	return nil
}

// PredictProba returns normalized cosine similarities against each class
// vector (clamped at zero).
func (m *Model) PredictProba(X [][]float64) ([][]float64, error) {
	if m.enc == nil {
		return nil, ml.ErrNotFitted
	}
	out := make([][]float64, len(X))
	for i, series := range X {
		words, err := m.enc.SlidingWords(series, m.window, true)
		if err != nil {
			return nil, fmt.Errorf("saxvsm: series %d: %w", i, err)
		}
		bag := map[string]float64{}
		for _, w := range words {
			bag[w]++
		}
		// Every sum over the bag runs in word order, so a refit gives the
		// same bits.
		order := slices.Sorted(maps.Keys(bag))
		bagNorm := 0.0
		for _, w := range order {
			bagNorm += bag[w] * bag[w]
		}
		bagNorm = math.Sqrt(bagNorm)

		p := make([]float64, m.classes)
		for c := range p {
			if m.norms[c] == 0 || bagNorm == 0 {
				continue
			}
			dot := 0.0
			for _, w := range order {
				if weight, ok := m.tfidf[c][w]; ok {
					dot += bag[w] * weight
				}
			}
			sim := dot / (bagNorm * m.norms[c])
			if sim > 0 {
				p[c] = sim
			}
		}
		ml.Normalize(p)
		out[i] = p
	}
	return out, nil
}
