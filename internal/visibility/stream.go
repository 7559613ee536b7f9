// Incremental sliding-window maintenance of visibility graphs.
//
// Both visibility criteria are local: whether (i,j) is an edge depends
// only on the values at indices i..j. Sliding a window therefore never
// rewires surviving pairs — appending a sample only ADDS edges from the
// new rightmost point backward, and evicting the oldest point only
// REMOVES its incident edges. Incremental maintains both graphs under
// that observation:
//
//   - HVG: the classic monotone-stack argument. The stack of
//     "right-visible records" (each bar strictly taller than everything
//     after it) is carried across pushes; a new bar links to every bar it
//     pops plus the first bar at least as tall, amortized O(1) per push.
//     Evicting the oldest bar can only touch the stack bottom.
//   - NVG: a backward max-slope scan from the new point — a bar is
//     visible iff its slope toward the new point strictly exceeds every
//     nearer bar's — with an early exit once even the window maximum
//     (read off the stack bottom) could no longer beat the running
//     maximum slope. Output-sensitive: O(new edges) until the exit
//     triggers, O(window) worst case.
package visibility

import (
	"errors"
	"fmt"
	"math"

	"mvg/internal/graph"
)

// ErrNonFinite is returned by Incremental.Push for NaN or infinite
// samples, which have no place in a visibility ordering.
var ErrNonFinite = errors.New("visibility: non-finite sample")

// ErrWindowLen is returned for windows too short to ever hold a graph.
var ErrWindowLen = errors.New("visibility: window needs at least 2 points")

// Incremental maintains the natural and/or horizontal visibility graph of
// a sliding window over a sample stream. Push appends one sample, evicting
// the oldest automatically once the window is full; VG and HVG expose
// the current window's ring graphs, whose subgraph counts stay current as
// the window slides and whose features are read off the rings in place.
//
// The maintained edge sets are identical to what the batch builders
// (Builder.VGEdges / Builder.HVGEdges) produce on the materialized window
// — pinned by differential tests and FuzzStreamAgainstBatch. An
// Incremental must not be shared between goroutines.
type Incremental struct {
	capacity int
	vg, hvg  *graph.RingGraph // nil when that graph is not maintained

	values []float64 // ring of raw samples, slot = id % capacity
	start  int       // logical id of the oldest live sample
	count  int       // live samples

	// Monotone stack of logical ids with strictly decreasing values from
	// bottom to top (the right-visible records). stack[bot:] is live; the
	// dead prefix left by evictions is compacted away amortized O(1).
	stack []int
	bot   int

	nbrs []int // backward-neighbor scratch, collected descending
}

// NewIncremental returns a maintainer for windows of windowLen samples.
// maintainVG / maintainHVG select which graphs are kept; with both false
// the Incremental degrades to a plain sample ring (as in an mvg.Stream
// that rebuilds its graphs per hop).
func NewIncremental(windowLen int, maintainVG, maintainHVG bool) (*Incremental, error) {
	if windowLen < 2 {
		return nil, fmt.Errorf("%w: windowLen=%d", ErrWindowLen, windowLen)
	}
	inc := &Incremental{
		capacity: windowLen,
		values:   make([]float64, windowLen),
	}
	if maintainVG {
		inc.vg = graph.NewRingGraph(windowLen)
	}
	if maintainHVG {
		inc.hvg = graph.NewRingGraph(windowLen)
	}
	return inc, nil
}

// Reset empties the window, retaining all storage.
func (inc *Incremental) Reset() {
	inc.start, inc.count, inc.bot = 0, 0, 0
	inc.stack = inc.stack[:0]
	if inc.vg != nil {
		inc.vg.Reset(inc.capacity)
	}
	if inc.hvg != nil {
		inc.hvg.Reset(inc.capacity)
	}
}

// WindowLen returns the window capacity.
func (inc *Incremental) WindowLen() int { return inc.capacity }

// Len returns the number of live samples (== WindowLen once full).
func (inc *Incremental) Len() int { return inc.count }

// Total returns how many samples have ever been pushed.
func (inc *Incremental) Total() int { return inc.start + inc.count }

func (inc *Incremental) val(id int) float64 { return inc.values[id%inc.capacity] }

// Push appends one sample, evicting the oldest first when the window is
// full, and updates the maintained graphs. Non-finite samples are rejected
// with ErrNonFinite and leave the window untouched.
func (inc *Incremental) Push(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%w: %v", ErrNonFinite, x)
	}
	if inc.count == inc.capacity {
		inc.evict()
	}
	id := inc.start + inc.count
	maintain := inc.vg != nil || inc.hvg != nil

	if inc.vg != nil && inc.count > 0 {
		// Backward max-slope scan. M is the window maximum, the value of
		// the stack bottom (the earliest right-visible record).
		maxSlope := math.Inf(-1)
		m := inc.val(inc.stack[inc.bot])
		nbrs := inc.nbrs[:0]
		for k := id - 1; k >= inc.start; k-- {
			slope := (inc.val(k) - x) / float64(id-k)
			if slope > maxSlope {
				nbrs = append(nbrs, k)
				maxSlope = slope
			}
			// Every remaining bar sits at distance ≥ id-k+1 and at height
			// ≤ m, so its slope is at most (m-x)/(id-k+1) ≤
			// maxSlope·(id-k+1)/(id-k+1): nothing left can be visible.
			if maxSlope >= 0 && maxSlope*float64(id-k+1) >= m-x {
				break
			}
		}
		inc.nbrs = nbrs
		reverse(nbrs) // collected descending; RingGraph wants ascending
		inc.vg.Append(nbrs)
	} else if inc.vg != nil {
		inc.vg.Append(nil)
	}

	if maintain {
		// HVG links and stack update: pop strictly smaller bars (each an
		// edge), link to the first bar at least as tall, pop it when equal
		// (equal heights block further visibility), push the new bar.
		nbrs := inc.nbrs[:0]
		for len(inc.stack) > inc.bot && inc.val(inc.stack[len(inc.stack)-1]) < x {
			nbrs = append(nbrs, inc.stack[len(inc.stack)-1])
			inc.stack = inc.stack[:len(inc.stack)-1]
		}
		if len(inc.stack) > inc.bot {
			top := inc.stack[len(inc.stack)-1]
			nbrs = append(nbrs, top)
			if inc.val(top) == x {
				inc.stack = inc.stack[:len(inc.stack)-1]
			}
		}
		inc.nbrs = nbrs
		if inc.hvg != nil {
			reverse(nbrs)
			inc.hvg.Append(nbrs)
		}
		inc.stack = append(inc.stack, id)
	}

	inc.values[id%inc.capacity] = x
	inc.count++
	return nil
}

// evict drops the oldest sample and its incident edges.
func (inc *Incremental) evict() {
	u := inc.start
	if inc.vg != nil {
		inc.vg.Evict()
	}
	if inc.hvg != nil {
		inc.hvg.Evict()
	}
	// The evictee is the earliest live index, so it can only be the stack
	// bottom: every other stack entry has later indices below it.
	if len(inc.stack) > inc.bot && inc.stack[inc.bot] == u {
		inc.bot++
		if inc.bot >= inc.capacity {
			// Compact the dead prefix; costs O(window) every ≥window
			// evictions, amortized O(1).
			inc.stack = inc.stack[:copy(inc.stack, inc.stack[inc.bot:])]
			inc.bot = 0
		}
	}
	inc.start++
	inc.count--
}

// WindowInto materializes the live window in time order into dst (grown as
// needed) and returns it.
func (inc *Incremental) WindowInto(dst []float64) []float64 {
	if cap(dst) < inc.count {
		dst = make([]float64, inc.count)
	}
	dst = dst[:inc.count]
	for k := 0; k < inc.count; k++ {
		dst[k] = inc.val(inc.start + k)
	}
	return dst
}

// VG returns the window's natural visibility graph, nil when the
// Incremental was built without VG maintenance. Its vertices in window
// order are logical ids Start..Start+Len-1 of the ring.
func (inc *Incremental) VG() *graph.RingGraph { return inc.vg }

// HVG returns the window's horizontal visibility graph, nil when the
// Incremental was built without HVG maintenance.
func (inc *Incremental) HVG() *graph.RingGraph { return inc.hvg }

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
