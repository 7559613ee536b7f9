// Package xgb implements gradient-boosted decision trees in the XGBoost
// style (Chen & Guestrin 2016): second-order Taylor objective, regularized
// split gain, shrinkage, and row/column subsampling, with a softmax
// multi-class objective. It is the primary classifier the paper pairs with
// MVG features, and exposes gain-based feature importance for the Figure 10
// case study.
package xgb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mvg/internal/ml"
)

// Params configures boosting. Zero values take the documented defaults.
type Params struct {
	// NumRounds is the number of boosting rounds (default 50).
	NumRounds int
	// LearningRate is the shrinkage η applied to every leaf (default 0.3).
	LearningRate float64
	// MaxDepth limits each regression tree (default 6).
	MaxDepth int
	// Lambda is the L2 penalty on leaf weights (default 1).
	Lambda float64
	// Gamma is the minimum split gain (default 0).
	Gamma float64
	// Subsample is the row-sampling fraction per round (default 1; the
	// paper's experiments use 0.5).
	Subsample float64
	// ColsampleByTree is the feature-sampling fraction per tree (default 1;
	// the paper's experiments use 0.5).
	ColsampleByTree float64
	// MinChildWeight is the minimum hessian sum per child (default 1).
	MinChildWeight float64
	// Seed drives subsampling.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.NumRounds <= 0 {
		p.NumRounds = 50
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.3
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 6
	}
	if p.Lambda < 0 {
		p.Lambda = 0
	} else if p.Lambda == 0 {
		p.Lambda = 1
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 1
	}
	if p.ColsampleByTree <= 0 || p.ColsampleByTree > 1 {
		p.ColsampleByTree = 1
	}
	if p.MinChildWeight <= 0 {
		p.MinChildWeight = 1
	}
	return p
}

// regNode is a node of a second-order regression tree.
type regNode struct {
	feature   int32 // -1 for leaf
	threshold float64
	left      int32
	right     int32
	weight    float64 // leaf output (already shrunk by η)
}

type regTree struct{ nodes []regNode }

func (t *regTree) predict(row []float64) float64 {
	n := &t.nodes[0]
	for n.feature >= 0 {
		if row[n.feature] <= n.threshold {
			n = &t.nodes[n.left]
		} else {
			n = &t.nodes[n.right]
		}
	}
	return n.weight
}

// Model is a fitted boosted ensemble implementing ml.Classifier.
type Model struct {
	P       Params
	classes int
	// trees[round][class]
	trees [][]regTree
	// gain accumulates split gain per feature (importance).
	gain []float64
}

// New returns an untrained model.
func New(p Params) *Model { return &Model{P: p} }

// Clone returns a fresh untrained model with identical parameters.
func (m *Model) Clone() ml.Classifier { return &Model{P: m.P} }

// PrefixOf implements ml.Prefixed: c's fit is the first k rounds of m's
// when both are boosters whose parameters, after defaults, differ only in
// NumRounds and c has no more rounds than m. Fit draws from its rng in
// round order (the row sample, then each class's column sample), round
// r's trees depend only on earlier rounds, and PredictProba sums rounds
// in order, so the prefix is exact.
func (m *Model) PrefixOf(c ml.Classifier) (int, bool) {
	o, ok := c.(*Model)
	if !ok {
		return 0, false
	}
	long, short := m.P.withDefaults(), o.P.withDefaults()
	k := short.NumRounds
	short.NumRounds = long.NumRounds
	if short != long || k > long.NumRounds {
		return 0, false
	}
	return k, true
}

// Truncate implements ml.Prefixed: the fitted model's first k rounds,
// for 0 < k <= the fitted rounds. The result predicts exactly as a
// k-round fit does; its feature importance reads zero, since only a full
// fit accumulates split gain.
func (m *Model) Truncate(k int) ml.Classifier {
	p := m.P
	p.NumRounds = k
	// A copy of the round list: a later Fit of m reuses its backing array.
	return &Model{P: p, classes: m.classes, trees: slices.Clone(m.trees[:k]), gain: make([]float64, len(m.gain))}
}

// Name implements ml.Named.
func (m *Model) Name() string {
	p := m.P.withDefaults()
	return fmt.Sprintf("xgb(rounds=%d,lr=%.2g,depth=%d)", p.NumRounds, p.LearningRate, p.MaxDepth)
}

// valueRow is one row's value of the feature being scanned.
type valueRow struct {
	v   float64
	row int
}

// treeBuilder grows one regression tree on gradients/hessians. Its
// buffers are sized to the training set once per Fit; growing a tree
// allocates nothing but the nodes it appends.
//
// The split scan sums gradients in the order sortPairs leaves a node's
// (value, row) pairs when it sorts them from ascending row order, the
// order every node's rows are in: the round's rows are ascending, and
// each split partitions them stably. Each sampled column keeps a segment
// in (value, row) order instead, filtered from a once-per-Fit presort to
// the round's rows and split with the node's rows. That is sortPairs'
// order whenever the node has at most maxInsertion rows, which pdqsort
// insertion-sorts stably, and up to the first tie otherwise: before it,
// both orders hold the same rows at the same positions (−0 and +0 tie;
// CheckTrainingSet refuses NaN and ±Inf). So only a tie before the last
// boundary the scan reads makes a node sort. A root's sort is the same
// for every class tree of the round, so it runs once per round and
// column.
//
// The scan stops where no later gain can be read, so the chosen splits
// keep their bits. A gain needs both sides' hessian sums HL and H-HL to
// reach MinChildWeight. A node whose sum H, in row order, is below twice
// it is a leaf: if HL >= H/2, H-HL is exact (Sterbenz), so at most
// H-MinChildWeight, which is below MinChildWeight; a smaller HL is below
// it itself. Every hessian is positive, so the rounded HL never falls
// and the rounded H-HL never rises: a column's scan stops at the first
// boundary whose right side is below MinChildWeight, and reads no sum in
// the greatest value's run. A column constant at the node has no
// boundary. A node's segments are filled or partitioned only when it
// scans.
type treeBuilder struct {
	cols      [][]float64  // cols[f][i] = X[i][f]
	presorted [][]valueRow // column f's pairs by value, then by row
	g, h      []float64
	p         Params
	nodes     []regNode
	columns   []int
	gain      []float64
	rows      []int // the round's row sample, ascending
	keep      []int // keep[i] is 1 when row i is in the round's sample
	idx       []int // the tree's rows, each node's a contiguous run
	// segs[k] holds the rows of idx in (value, row) order of column
	// columns[k], each node's at the same positions as in idx.
	segs       [][]valueRow
	goLeft     []int      // goLeft[i] is 1 when row i goes to the left child
	pairs      []valueRow // a node's pairs while they sort
	right      []int      // a node's right-going rows while it partitions
	rightPairs []valueRow // a segment's right-going pairs while it partitions
	// rootPairs[f] is column f's sorted pairs at the round's rows, which
	// every class tree's root reads once rootSorted[f] is set.
	rootPairs  [][]valueRow
	rootSorted []bool
}

// newTreeBuilder sizes a builder to X for trees of perTree sampled
// columns. It copies X column by column and sorts each column's
// (value, row) pairs by value and then by row, once per Fit.
func newTreeBuilder(X [][]float64, p Params, perTree int, g, h, gain []float64) *treeBuilder {
	n, width := len(X), len(X[0])
	b := &treeBuilder{g: g, h: h, p: p, gain: gain,
		cols:       make([][]float64, width),
		presorted:  make([][]valueRow, width),
		rootPairs:  make([][]valueRow, width),
		rootSorted: make([]bool, width),
		segs:       make([][]valueRow, perTree),
		keep:       make([]int, n),
		idx:        make([]int, n),
		goLeft:     make([]int, n),
		pairs:      make([]valueRow, n),
		right:      make([]int, 0, n),
		rightPairs: make([]valueRow, n),
	}
	flat := make([]float64, width*n)
	buf := make([]valueRow, (2*width+perTree)*n)
	for f := range b.cols {
		b.cols[f] = flat[f*n : (f+1)*n]
		b.presorted[f] = buf[f*n : (f+1)*n]
		b.rootPairs[f] = buf[(width+f)*n : (width+f+1)*n]
		for i, row := range X {
			b.cols[f][i] = row[f]
			b.presorted[f][i] = valueRow{row[f], i}
		}
		// The rows differ, so no two keys are equal and the order is
		// unique; CheckTrainingSet refuses NaN.
		slices.SortFunc(b.presorted[f], func(x, y valueRow) int {
			if x.v < y.v {
				return -1
			}
			if x.v > y.v {
				return 1
			}
			return x.row - y.row
		})
	}
	for k := range b.segs {
		b.segs[k] = buf[(2*width+k)*n : (2*width+k+1)*n]
	}
	return b
}

// startRound takes the round's row sample, in ascending order.
func (b *treeBuilder) startRound(rows []int) {
	b.rows = rows
	clear(b.rootSorted)
	clear(b.keep)
	for _, i := range rows {
		b.keep[i] = 1
	}
}

// tree grows one tree over the round's rows and the sampled columns.
// grow reorders its rows and segments, so each tree starts from the
// rows in ascending order, and a root that scans from each column's
// presort filtered to them.
func (b *treeBuilder) tree() regTree {
	copy(b.idx, b.rows)
	var G, H float64
	for _, i := range b.rows {
		G += b.g[i]
		H += b.h[i]
	}
	b.nodes = nil
	b.grow(0, len(b.rows), 0, G, H)
	return regTree{nodes: b.nodes}
}

func (b *treeBuilder) leaf(G, H float64) int32 {
	w := -G / (H + b.p.Lambda) * b.p.LearningRate
	b.nodes = append(b.nodes, regNode{feature: -1, weight: w})
	return int32(len(b.nodes) - 1)
}

// isLeaf reports whether a node of n rows at depth, whose hessians sum
// to H in row order, is a leaf without a scan: no split of it could pass
// MaxDepth and MinChildWeight (see treeBuilder).
func (b *treeBuilder) isLeaf(n, depth int, H float64) bool {
	return depth >= b.p.MaxDepth || n < 2 || H < 2*b.p.MinChildWeight
}

// grow builds the subtree over the rows idx[lo:hi], whose gradients and
// hessians sum to G and H in row order. It reorders the rows in place:
// each split leaves its left rows first and its right rows after, both
// in their previous order, and does the same to every segment when a
// child will scan.
func (b *treeBuilder) grow(lo, hi, depth int, G, H float64) int32 {
	idx := b.idx[lo:hi]
	if b.isLeaf(len(idx), depth, H) {
		return b.leaf(G, H)
	}
	if depth == 0 {
		for k, f := range b.columns {
			filter(b.segs[k], b.presorted[f], b.keep)
		}
	}
	parentScore := G * G / (H + b.p.Lambda)

	bestGain := 0.0
	bestFeature := -1
	bestThreshold := 0.0

	for j, f := range b.columns {
		// The segment until a tie below the greatest value, if the node
		// is too large to be insertion-sorted, and the sorted pairs from
		// there on (see treeBuilder). A constant column has no boundary.
		pairs := b.segs[j][lo:hi]
		greatest := pairs[len(pairs)-1].v
		if pairs[0].v == greatest {
			continue
		}
		watch := len(pairs) > maxInsertion
		var GL, HL float64
		for k := 0; k+1 < len(pairs); k++ {
			if watch && pairs[k].v == pairs[k+1].v && pairs[k].v != greatest {
				pairs, watch = b.sorted(f, idx, depth == 0), false
			}
			i := pairs[k].row
			GL += b.g[i]
			HL += b.h[i]
			v, next := pairs[k].v, pairs[k+1].v
			if v == next {
				continue
			}
			HR := H - HL
			if HR < b.p.MinChildWeight {
				break // and so is every later HR
			}
			if HL < b.p.MinChildWeight {
				continue
			}
			GR := G - GL
			gain := 0.5*(GL*GL/(HL+b.p.Lambda)+GR*GR/(HR+b.p.Lambda)-parentScore) - b.p.Gamma
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (v + next) / 2
			}
		}
	}

	if bestFeature < 0 {
		return b.leaf(G, H)
	}
	b.gain[bestFeature] += bestGain

	// Stable partition: left rows move forward in place, right rows wait
	// in b.right and follow them, each side summed in its new order. An
	// empty side leaves idx as it was.
	col := b.cols[bestFeature]
	left, right := idx[:0], b.right[:0]
	var GL, HL, GR, HR float64
	for _, i := range idx {
		if col[i] <= bestThreshold {
			left = append(left, i)
			b.goLeft[i] = 1
			GL += b.g[i]
			HL += b.h[i]
		} else {
			right = append(right, i)
			b.goLeft[i] = 0
			GR += b.g[i]
			HR += b.h[i]
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return b.leaf(G, H)
	}
	copy(idx[len(left):], right)
	// A child that will not scan reads no segment.
	if !b.isLeaf(len(left), depth+1, HL) || !b.isLeaf(len(right), depth+1, HR) {
		for k := range b.columns {
			partition(b.segs[k][lo:hi], b.goLeft, b.rightPairs)
		}
	}
	mid := lo + len(left)
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, regNode{feature: int32(bestFeature), threshold: bestThreshold})
	l := b.grow(lo, mid, depth+1, GL, HL)
	r := b.grow(mid, hi, depth+1, GR, HR)
	b.nodes[self].left = l
	b.nodes[self].right = r
	return self
}

// sorted returns column f's pairs at the rows idx, in ascending row
// order, as sortPairs sorts them. A root's are the same for every class
// tree of the round, so they are sorted once per round.
func (b *treeBuilder) sorted(f int, idx []int, root bool) []valueRow {
	pairs := b.pairs[:len(idx)]
	if root {
		pairs = b.rootPairs[f][:len(idx)]
		if b.rootSorted[f] {
			return pairs
		}
		b.rootSorted[f] = true
	}
	col := b.cols[f]
	for k, i := range idx {
		pairs[k] = valueRow{col[i], i}
	}
	sortPairs(pairs)
	return pairs
}

// partition moves the pairs whose rows go left to the front of seg and
// the others after them, both in their previous order, with tmp holding
// the right side meanwhile. It writes both buffers on every pair and
// advances one, so it does not branch on the side.
func partition(seg []valueRow, goLeft []int, tmp []valueRow) {
	l, r := 0, 0
	for _, p := range seg {
		side := goLeft[p.row]
		seg[l] = p
		tmp[r] = p
		l += side
		r += 1 - side
	}
	copy(seg[l:], tmp[:r])
}

// filter writes the pairs of src whose rows keep holds 1 to the front of
// dst, in order; dst must be as long as src.
func filter(dst, src []valueRow, keep []int) {
	k := 0
	for _, p := range src {
		dst[k] = p
		k += keep[p.row]
	}
}

// Fit trains the boosted ensemble with the softmax objective: each round
// grows one tree per class on that class's gradients g = p − 1{y=c} and
// hessians h = p(1 − p).
func (m *Model) Fit(X [][]float64, y []int, classes int) error {
	if err := ml.CheckTrainingSet(X, y, classes); err != nil {
		return err
	}
	p := m.P.withDefaults()
	n := len(X)
	width := len(X[0])
	m.classes = classes
	m.trees = m.trees[:0]
	m.gain = make([]float64, width)
	rng := rand.New(rand.NewSource(p.Seed))

	// raw[i][c] — accumulated scores.
	raw := make([][]float64, n)
	for i := range raw {
		raw[i] = make([]float64, classes)
	}
	probs := make([][]float64, n)
	for i := range probs {
		probs[i] = make([]float64, classes)
	}
	g := make([]float64, n)
	h := make([]float64, n)
	allCols := make([]int, width)
	for i := range allCols {
		allCols[i] = i
	}
	// Each tree samples perTree columns.
	perTree := width
	if p.ColsampleByTree < 1 {
		perTree = max(1, int(math.Ceil(p.ColsampleByTree*float64(width))))
	}
	b := newTreeBuilder(X, p, perTree, g, h, m.gain)
	rows := make([]int, 0, n)
	perm := make([]int, width) // the column sample's permutation

	for round := 0; round < p.NumRounds; round++ {
		// Softmax over current raw scores.
		for i := range raw {
			softmaxInto(raw[i], probs[i])
		}
		// Row subsample for this round: every row when the sample is
		// off or keeps fewer than two.
		rows = rows[:0]
		if p.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < p.Subsample {
					rows = append(rows, i)
				}
			}
		}
		if len(rows) < 2 {
			rows = rows[:0]
			for i := 0; i < n; i++ {
				rows = append(rows, i)
			}
		}
		b.startRound(rows)

		roundTrees := make([]regTree, classes)
		for c := 0; c < classes; c++ {
			for i := 0; i < n; i++ {
				target := 0.0
				if y[i] == c {
					target = 1
				}
				pc := probs[i][c]
				g[i] = pc - target
				h[i] = pc * (1 - pc)
				if h[i] < 1e-16 {
					h[i] = 1e-16
				}
			}
			// Column subsample per tree: rng.Perm(width)'s draws, into
			// perm, and its first perTree entries in ascending order.
			b.columns = allCols
			if p.ColsampleByTree < 1 {
				for i := range perm {
					j := rng.Intn(i + 1)
					perm[i] = perm[j]
					perm[j] = i
				}
				b.columns = perm[:perTree]
				slices.Sort(b.columns)
			}
			roundTrees[c] = b.tree()
			// Update raw scores for all samples.
			for i := 0; i < n; i++ {
				raw[i][c] += roundTrees[c].predict(X[i])
			}
		}
		m.trees = append(m.trees, roundTrees)
	}
	return nil
}

// softmaxInto writes softmax(raw) into dst.
func softmaxInto(raw, dst []float64) {
	maxV := raw[0]
	for _, v := range raw[1:] {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range raw {
		e := math.Exp(v - maxV)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// PredictProba returns softmax class probabilities.
func (m *Model) PredictProba(X [][]float64) ([][]float64, error) {
	if m.trees == nil {
		return nil, ml.ErrNotFitted
	}
	out := make([][]float64, len(X))
	for i, row := range X {
		raw := make([]float64, m.classes)
		for _, roundTrees := range m.trees {
			for c := range roundTrees {
				raw[c] += roundTrees[c].predict(row)
			}
		}
		p := make([]float64, m.classes)
		softmaxInto(raw, p)
		out[i] = p
	}
	return out, nil
}

// Dims returns the fitted model's class count and feature width.
func (m *Model) Dims() (classes, width int) { return m.classes, len(m.gain) }

// FeatureImportance returns total split gain per feature, normalized to
// sum to one (zero vector if the ensemble never split).
func (m *Model) FeatureImportance() []float64 {
	out := make([]float64, len(m.gain))
	copy(out, m.gain)
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}
