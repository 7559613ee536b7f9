// Package fastshapelets implements the Fast Shapelets classifier
// (Rakthanmanon & Keogh, SDM 2013), one of the paper's five comparison
// baselines. Candidate shapelets are discovered cheaply in SAX space:
// subsequences become SAX words, random masking projects similar words
// onto shared signatures, per-class collision statistics score each word's
// distinguishing power, and only the top-scoring candidates are evaluated
// exactly by information gain. The best (shapelet, threshold) pair splits
// the data and the procedure recurses into a decision tree.
package fastshapelets

import (
	"cmp"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"

	"mvg/internal/ml"
	"mvg/internal/sax"
	"mvg/internal/timeseries"
)

// Params configures the search.
type Params struct {
	// NumProjections is the number of random masking rounds per candidate
	// length (default 10).
	NumProjections int
	// TopK is the number of SAX words evaluated exactly per length
	// (default 10).
	TopK int
	// SAXSegments is the word length (default 8).
	SAXSegments int
	// SAXAlphabet is the cardinality (default 4).
	SAXAlphabet int
	// MaxDepth limits the decision tree (default 12).
	MaxDepth int
	// MinLen, MaxLen, LenStep control the shapelet-length sweep; zero
	// values default to 10%, 60% and ~10 steps of the series length.
	MinLen, MaxLen, LenStep int
	// Seed drives masking.
	Seed int64
}

func (p Params) withDefaults(seriesLen int) Params {
	if p.NumProjections <= 0 {
		p.NumProjections = 10
	}
	if p.TopK <= 0 {
		p.TopK = 10
	}
	if p.SAXSegments <= 0 {
		p.SAXSegments = 8
	}
	if p.SAXAlphabet <= 0 {
		p.SAXAlphabet = 4
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 12
	}
	if p.MinLen <= 0 {
		p.MinLen = seriesLen / 10
	}
	if p.MinLen < p.SAXSegments {
		p.MinLen = p.SAXSegments
	}
	if p.MaxLen <= 0 || p.MaxLen > seriesLen {
		p.MaxLen = seriesLen * 6 / 10
	}
	if p.MaxLen < p.MinLen {
		p.MaxLen = p.MinLen
	}
	if p.LenStep <= 0 {
		p.LenStep = (p.MaxLen - p.MinLen) / 10
		if p.LenStep < 1 {
			p.LenStep = 1
		}
	}
	return p
}

// treeNode is one node of the shapelet decision tree.
type treeNode struct {
	shapelet  []float64 // z-normalized; nil for leaves
	threshold float64
	left      int32
	right     int32
	probs     []float64
}

// Model is a fitted Fast Shapelets tree implementing ml.Classifier.
type Model struct {
	P       Params
	classes int
	nodes   []treeNode
}

// New returns an untrained model.
func New(p Params) *Model { return &Model{P: p} }

// Clone returns a fresh untrained model with identical parameters.
func (m *Model) Clone() ml.Classifier { return &Model{P: m.P} }

// Name implements ml.Named.
func (m *Model) Name() string { return "fastshapelets" }

// wordInfo tracks one distinct SAX word at one candidate length.
type wordInfo struct {
	word string
	// firstSeries/firstPos locate a concrete subsequence spelling the word.
	firstSeries int
	firstPos    int
	// series marks which node-local series contain the word.
	series map[int]bool
	// score accumulates distinguishing power across projections.
	score float64
}

type fitState struct {
	X       [][]float64
	y       []int
	classes int
	p       Params
	rng     *rand.Rand
	nodes   []treeNode
}

// Fit builds the shapelet decision tree.
func (m *Model) Fit(X [][]float64, y []int, classes int) error {
	if err := ml.CheckTrainingSet(X, y, classes); err != nil {
		return err
	}
	m.P = m.P.withDefaults(len(X[0]))
	m.classes = classes
	st := &fitState{
		X:       X,
		y:       y,
		classes: classes,
		p:       m.P,
		rng:     rand.New(rand.NewSource(m.P.Seed)),
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	st.grow(idx, 0)
	m.nodes = st.nodes
	return nil
}

func (st *fitState) leaf(idx []int) int32 {
	probs := make([]float64, st.classes)
	for _, i := range idx {
		probs[st.y[i]]++
	}
	ml.Normalize(probs)
	st.nodes = append(st.nodes, treeNode{probs: probs})
	return int32(len(st.nodes) - 1)
}

func entropy(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// grow recursively builds the subtree over idx.
func (st *fitState) grow(idx []int, depth int) int32 {
	pure := true
	for _, i := range idx[1:] {
		if st.y[i] != st.y[idx[0]] {
			pure = false
			break
		}
	}
	if pure || len(idx) < 4 || depth >= st.p.MaxDepth {
		return st.leaf(idx)
	}

	shapelet, threshold, ok := st.bestShapelet(idx)
	if !ok {
		return st.leaf(idx)
	}

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if minSubseqDist(st.X[i], shapelet) <= threshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return st.leaf(idx)
	}
	self := int32(len(st.nodes))
	st.nodes = append(st.nodes, treeNode{shapelet: shapelet, threshold: threshold})
	l := st.grow(leftIdx, depth+1)
	r := st.grow(rightIdx, depth+1)
	st.nodes[self].left = l
	st.nodes[self].right = r
	return self
}

// bestShapelet runs the SAX random-projection search over the node's
// samples and returns the best (shapelet, threshold) by information gain.
func (st *fitState) bestShapelet(idx []int) ([]float64, float64, bool) {
	bestGain := 0.0
	bestGap := 0.0
	var bestShapelet []float64
	bestThreshold := 0.0

	for length := st.p.MinLen; length <= st.p.MaxLen; length += st.p.LenStep {
		if length > len(st.X[idx[0]]) {
			break
		}
		words := st.collectWords(idx, length)
		if len(words) == 0 {
			continue
		}
		st.projectAndScore(words, idx)

		// Evaluate the top-k words exactly. Distinct words have distinct
		// first occurrences, so ties in score break on where the word
		// first occurs and the order does not depend on the map's.
		list := slices.SortedFunc(maps.Values(words), func(a, b *wordInfo) int {
			return cmp.Or(
				cmp.Compare(b.score, a.score),
				cmp.Compare(a.firstSeries, b.firstSeries),
				cmp.Compare(a.firstPos, b.firstPos),
			)
		})
		k := st.p.TopK
		if k > len(list) {
			k = len(list)
		}
		for _, w := range list[:k] {
			sub := st.X[w.firstSeries][w.firstPos : w.firstPos+length]
			cand := timeseries.ZNormalize(sub)
			gain, threshold, gap := st.evaluateCandidate(idx, cand)
			if gain > bestGain || (gain == bestGain && gap > bestGap) {
				bestGain = gain
				bestGap = gap
				bestShapelet = cand
				bestThreshold = threshold
			}
		}
	}
	return bestShapelet, bestThreshold, bestShapelet != nil && bestGain > 1e-12
}

// collectWords builds the distinct SAX word table for one candidate length.
func (st *fitState) collectWords(idx []int, length int) map[string]*wordInfo {
	enc, err := sax.NewEncoder(st.p.SAXSegments, st.p.SAXAlphabet)
	if err != nil {
		return nil
	}
	words := map[string]*wordInfo{}
	for _, i := range idx {
		series := st.X[i]
		prev := ""
		for start := 0; start+length <= len(series); start++ {
			w, err := enc.Word(series[start : start+length])
			if err != nil {
				return nil
			}
			if w == prev {
				continue // numerosity reduction
			}
			prev = w
			info, ok := words[w]
			if !ok {
				info = &wordInfo{word: w, firstSeries: i, firstPos: start, series: map[int]bool{}}
				words[w] = info
			}
			info.series[i] = true
		}
	}
	return words
}

// projectAndScore runs random masking rounds and accumulates each word's
// class-distinguishing score from collision statistics.
func (st *fitState) projectAndScore(words map[string]*wordInfo, idx []int) {
	classTotals := make([]float64, st.classes)
	for _, i := range idx {
		classTotals[st.y[i]]++
	}
	maskCount := st.p.SAXSegments / 2
	if maskCount < 1 {
		maskCount = 1
	}
	coll := make([]float64, st.classes)
	for r := 0; r < st.p.NumProjections; r++ {
		mask := st.rng.Perm(st.p.SAXSegments)[:maskCount]
		groups := map[string][]*wordInfo{}
		buf := make([]byte, st.p.SAXSegments)
		for _, info := range words {
			copy(buf, info.word)
			for _, pos := range mask {
				buf[pos] = '*'
			}
			sig := string(buf)
			groups[sig] = append(groups[sig], info)
		}
		for _, group := range groups {
			// Per-class series hit counts for the merged group.
			for c := range coll {
				coll[c] = 0
			}
			seen := map[int]bool{}
			for _, info := range group {
				for s := range info.series {
					if !seen[s] {
						seen[s] = true
						coll[st.y[s]]++
					}
				}
			}
			// Distinguishing power: the best one-vs-rest frequency gap.
			for _, info := range group {
				best := 0.0
				for c := 0; c < st.classes; c++ {
					if classTotals[c] == 0 {
						continue
					}
					own := coll[c] / classTotals[c]
					other, cnt := 0.0, 0.0
					for c2 := 0; c2 < st.classes; c2++ {
						if c2 == c || classTotals[c2] == 0 {
							continue
						}
						other += coll[c2] / classTotals[c2]
						cnt++
					}
					if cnt > 0 {
						other /= cnt
					}
					gap := math.Abs(own - other)
					if gap > best {
						best = gap
					}
				}
				info.score += best
			}
		}
	}
}

// evaluateCandidate computes the best information-gain threshold for one
// exact shapelet candidate over the node samples, returning (gain,
// threshold, separation gap).
func (st *fitState) evaluateCandidate(idx []int, cand []float64) (float64, float64, float64) {
	type distLabel struct {
		d float64
		y int
	}
	dl := make([]distLabel, len(idx))
	parentCounts := make([]float64, st.classes)
	for k, i := range idx {
		dl[k] = distLabel{minSubseqDist(st.X[i], cand), st.y[i]}
		parentCounts[st.y[i]]++
	}
	sort.Slice(dl, func(a, b int) bool { return dl[a].d < dl[b].d })
	total := float64(len(dl))
	parentH := entropy(parentCounts, total)

	left := make([]float64, st.classes)
	bestGain, bestThreshold, bestGap := 0.0, 0.0, 0.0
	for k := 0; k+1 < len(dl); k++ {
		left[dl[k].y]++
		if dl[k].d == dl[k+1].d {
			continue
		}
		lTotal := float64(k + 1)
		rTotal := total - lTotal
		rightH := 0.0
		{
			h := 0.0
			for c := range parentCounts {
				r := parentCounts[c] - left[c]
				if r > 0 {
					p := r / rTotal
					h -= p * math.Log2(p)
				}
			}
			rightH = h
		}
		gain := parentH - (lTotal/total)*entropy(left, lTotal) - (rTotal/total)*rightH
		gap := dl[k+1].d - dl[k].d
		if gain > bestGain || (gain == bestGain && gap > bestGap) {
			bestGain = gain
			bestGap = gap
			bestThreshold = (dl[k].d + dl[k+1].d) / 2
		}
	}
	return bestGain, bestThreshold, bestGap
}

// minSubseqDist returns the minimum length-normalized Euclidean distance
// between the (z-normalized) candidate and every z-normalized window of
// the series, with early abandoning.
func minSubseqDist(series, cand []float64) float64 {
	L := len(cand)
	if len(series) < L {
		// Compare against the whole (shorter) series stretched via PAA of
		// the candidate; rare in practice, defined for robustness.
		short, err := timeseries.PAA(cand, len(series))
		if err != nil {
			return math.Inf(1)
		}
		z := timeseries.ZNormalize(series)
		sum := 0.0
		for i := range z {
			d := z[i] - short[i]
			sum += d * d
		}
		return math.Sqrt(sum / float64(len(series)))
	}
	best := math.Inf(1)
	for start := 0; start+L <= len(series); start++ {
		w := timeseries.ZNormalize(series[start : start+L])
		sum := 0.0
		for i := 0; i < L; i++ {
			d := w[i] - cand[i]
			sum += d * d
			if sum >= best*best*float64(L) {
				sum = math.Inf(1)
				break
			}
		}
		if !math.IsInf(sum, 1) {
			d := math.Sqrt(sum / float64(L))
			if d < best {
				best = d
			}
		}
	}
	return best
}

// PredictProba walks the shapelet tree for each series.
func (m *Model) PredictProba(X [][]float64) ([][]float64, error) {
	if m.nodes == nil {
		return nil, ml.ErrNotFitted
	}
	out := make([][]float64, len(X))
	for i, series := range X {
		n := &m.nodes[0]
		for n.shapelet != nil {
			if minSubseqDist(series, n.shapelet) <= n.threshold {
				n = &m.nodes[n.left]
			} else {
				n = &m.nodes[n.right]
			}
		}
		p := make([]float64, len(n.probs))
		copy(p, n.probs)
		out[i] = p
	}
	return out, nil
}

// NumNodes reports the size of the fitted tree.
func (m *Model) NumNodes() int { return len(m.nodes) }
