package visibility

import "math"

// Pyramid maintains a sliding window's visibility graphs at the original
// scale (level 0) and at the first levels of its PAA pyramid — the state
// behind mvg.Stream. Level k ≥ 1 is an Incremental over the window's k-th
// halving: it receives one value per 2^k pushes, the mean of the pair of
// level k−1 values that completes its block of 2^k samples, computed in
// timeseries.PAAInto's expression for two-point segments. So whenever the
// window starts on a block boundary of level k, that level's window is
// bit-identical to halving the window k times, and so are its graphs.
//
// A Pyramid must not be shared between goroutines.
type Pyramid struct {
	levels []*Incremental // levels[0] is the window itself
	first  []float64      // first[k]: first value of level k+1's pending pair
	// A halving that overflows to ±Inf or NaN (which the batch builders
	// reject) reaches its level as 0, and the level is not Aligned until
	// that block has left its window, after Total reaches badUntil[k].
	badUntil  []int
	windowLen int
	aligned   []*Incremental // Aligned's reusable result
}

// AlignedLevels returns how many pyramid levels k = 1, 2, …, at most
// maxLevel, a stream of this geometry can maintain: 2^k must divide
// windowLen, so that every halving down to level k takes PAA's two-point
// path, and hop, so that every hop starts the window on a block boundary.
func AlignedLevels(windowLen, hop, maxLevel int) int {
	k := 0
	for k < maxLevel && windowLen%(2<<k) == 0 && hop%(2<<k) == 0 {
		k++
	}
	return k
}

// NewPyramid returns a Pyramid over windows of windowLen samples that
// maintains the given number of halvings below the window (windowLen must
// be divisible by 2^levels). maintainVG, maintainHVG and counting apply to
// every level as in NewIncremental.
func NewPyramid(windowLen, levels int, maintainVG, maintainHVG, counting bool) (*Pyramid, error) {
	p := &Pyramid{
		first:     make([]float64, levels),
		badUntil:  make([]int, levels),
		windowLen: windowLen,
	}
	for k := 0; k <= levels; k++ {
		inc, err := NewIncremental(windowLen>>k, maintainVG, maintainHVG, counting)
		if err != nil {
			return nil, err
		}
		p.levels = append(p.levels, inc)
	}
	return p, nil
}

// Reset empties every level, retaining all storage.
func (p *Pyramid) Reset() {
	for _, inc := range p.levels {
		inc.Reset()
	}
	clear(p.first)
	clear(p.badUntil)
}

// Window returns the level-0 maintainer: the window's samples and graphs.
func (p *Pyramid) Window() *Incremental { return p.levels[0] }

// Push appends one sample to the window, evicting the oldest once it is
// full, and carries it up the levels whose blocks it completes.
// Non-finite samples are rejected with ErrNonFinite and leave every level
// untouched.
func (p *Pyramid) Push(x float64) error {
	if err := p.levels[0].Push(x); err != nil {
		return err
	}
	total := p.levels[0].Total()
	v := x
	for k := range p.first {
		if total%(2<<k) != 0 {
			p.first[k] = v
			return nil
		}
		sum := 0.0
		sum += p.first[k]
		sum += v
		v = sum / 2
		y := v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			p.badUntil[k] = total + p.windowLen
			y = 0
		}
		_ = p.levels[k+1].Push(y) // y is finite, all Push checks
	}
	return nil
}

// Aligned returns the window followed by every level k = 1, 2, … that
// holds the window's k-th halving right now, up to the first that does
// not: the window must start on one of the level's block boundaries
// (2^k divides Total, for a full window of a length 2^k divides) and hold
// no overflowed halving. The slice is reused by the next call.
func (p *Pyramid) Aligned() []*Incremental {
	total := p.levels[0].Total()
	out := append(p.aligned[:0], p.levels[0])
	for k := range p.first {
		if total%(2<<k) != 0 || total < p.badUntil[k] {
			break
		}
		out = append(out, p.levels[k+1])
	}
	p.aligned = out
	return out
}
