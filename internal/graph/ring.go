package graph

import (
	"math/bits"

	"mvg/internal/buf"
)

// RingGraph is the sliding-window graph substrate behind mvg.Stream: an
// undirected graph whose vertices are a contiguous window of a monotone
// logical sequence (time steps). It supports exactly the two mutations a
// sliding window needs — Append a new rightmost vertex with edges to older
// vertices, and Evict the leftmost vertex with all its incident edges —
// each in O(degree), with all storage reused across window slides.
//
// Vertices are addressed by their logical id (the value of Append's
// counter when they were added); the live window is [Start, Start+Len).
// Internally each vertex's adjacency row lives in a ring slot (id masked
// by a power of two at least the capacity, so live ids never share one),
// stored in ascending logical order. Rows hold ids modulo 2³², which
// keeps their slots (the capacity is below 2³¹) and their offsets from
// Start (by wrapping subtraction); where an id is compared with another,
// any total order does. Two facts keep mutations O(degree) without any
// searching:
//
//   - Append only ever links the new vertex (the window maximum id), so an
//     older vertex's row is extended at its tail and stays sorted.
//   - Evict removes the smallest live id, which — rows being sorted and
//     already purged of earlier evictions — is the head entry of every row
//     that contains it, so removal is a per-row head advance.
//
// A counting ring (NewCountingRingGraph) also keeps the window's
// Subgraphs current: each mutation adds or removes exactly the subgraph
// copies that contain the appended or evicted vertex (see countAt). Its
// other statistics are read off the rows in place: DegreesInto,
// DegeneracyScratch and DegreeEntropyScratch give what Graph's methods
// give on the window. ToCSR materializes the window as an ordinary CSR
// Graph (vertices renumbered to 0..Len-1 in window order) for the motif
// enumeration of a ring that does not count.
//
// A RingGraph must not be shared between goroutines. The zero value is not
// ready for use; construct with NewRingGraph or Reset.
type RingGraph struct {
	capacity int
	mask     int // slot of id: id & mask
	start    int // logical id of the oldest live vertex
	count    int // live vertices
	m        int // live edges

	rows  [][]arc // slot → arcs to ascending logical neighbor ids (with a dead prefix)
	heads []int   // slot → index of the first live entry of rows[slot]

	cnt *ringCounts // nil unless the ring counts subgraphs
}

// arc is one adjacency row entry: the neighbor's logical id modulo 2³²
// and, in a counting ring, the number of triangles on the edge (t_e).
type arc struct {
	id  uint32
	tri int32
}

// ringCounts is what a counting RingGraph keeps besides its rows: the
// totals, the per-vertex degree and triangle counts the local count reads,
// and its reusable scratch. Per-vertex arrays are indexed by slot.
type ringCounts struct {
	totals Subgraphs // every field but N and M, which the ring tracks anyway

	deg []int32 // degree
	tri []int64 // triangles at the vertex, t_v

	// codeg counts, per vertex, its neighbours in S (the changed vertex's
	// neighbour set) during one count, stored offset by base: base grows
	// past every stale entry at each count, so nothing is ever cleared.
	codeg []int64
	base  int64
	sidx  []int32 // 1 + position in S of each member of S, 0 elsewhere

	// G[S] as forward lists of S positions (fwd[off[i]:off[i+1]] holds the
	// neighbours of S[i] in S with a larger stored id), and a mark per S
	// position.
	off, fwd []int32
	smark    []int32
}

// NewRingGraph returns an empty ring graph for windows of up to capacity
// vertices.
func NewRingGraph(capacity int) *RingGraph {
	r := &RingGraph{}
	r.Reset(capacity)
	return r
}

// NewCountingRingGraph returns an empty ring graph that also keeps its
// Subgraphs current under every Append and Evict.
func NewCountingRingGraph(capacity int) *RingGraph {
	r := &RingGraph{cnt: &ringCounts{}}
	r.Reset(capacity)
	return r
}

// Reset reinitializes r in place to an empty window of the given capacity,
// retaining row storage when the capacity is unchanged. A counting ring
// stays counting.
func (r *RingGraph) Reset(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	slots := 1 << bits.Len(uint(capacity-1))
	if capacity != r.capacity || r.rows == nil {
		r.rows = make([][]arc, slots)
		r.heads = make([]int, slots)
		if c := r.cnt; c != nil {
			*c = ringCounts{
				deg:   make([]int32, slots),
				tri:   make([]int64, slots),
				codeg: make([]int64, slots),
				sidx:  make([]int32, slots),
				base:  c.base,
			}
		}
	} else {
		for i := range r.rows {
			r.rows[i] = r.rows[i][:0]
			r.heads[i] = 0
		}
		if c := r.cnt; c != nil {
			c.totals = Subgraphs{}
			clear(c.deg)
			clear(c.tri)
		}
	}
	r.capacity = capacity
	r.mask = slots - 1
	r.start = 0
	r.count = 0
	r.m = 0
}

// Capacity returns the maximum number of live vertices.
func (r *RingGraph) Capacity() int { return r.capacity }

// Len returns the number of live vertices.
func (r *RingGraph) Len() int { return r.count }

// M returns the number of live edges.
func (r *RingGraph) M() int { return r.m }

// Start returns the logical id of the oldest live vertex; the next Append
// creates id Start()+Len().
func (r *RingGraph) Start() int { return r.start }

// Degree returns the degree of the live vertex with the given logical id.
func (r *RingGraph) Degree(id int) int {
	slot := id & r.mask
	return len(r.rows[slot]) - r.heads[slot]
}

// DegreesInto writes the live degrees in window order (logical id minus
// Start) into dst, growing it as needed, and returns the filled slice.
func (r *RingGraph) DegreesInto(dst []int) []int {
	dst = buf.Grow(dst, r.count)
	for k := range dst {
		slot := (r.start + k) & r.mask
		dst[k] = len(r.rows[slot]) - r.heads[slot]
	}
	return dst
}

// Subgraphs returns the live window's subgraph counts, equal to
// motif.Counter.Subgraphs of its ToCSR snapshot. ok is false, and the
// counts zero, unless the ring was built by NewCountingRingGraph.
func (r *RingGraph) Subgraphs() (s Subgraphs, ok bool) {
	if r.cnt == nil {
		return Subgraphs{}, false
	}
	s = r.cnt.totals
	s.N, s.M = int64(r.count), int64(r.m)
	return s, true
}

// Append adds the next vertex (logical id Start()+Len()) linked to the
// given older live vertices and returns its id. neighbors must be strictly
// ascending logical ids within the live window; the slice is copied, not
// retained. The window must not be full — callers evict first (mvg.Stream
// does; see internal/visibility.Incremental).
func (r *RingGraph) Append(neighbors []int) int {
	if r.count == r.capacity {
		panic("graph: RingGraph.Append on a full window (Evict first)")
	}
	id := r.start + r.count
	slot := id & r.mask
	row := r.rows[slot][:0]
	r.heads[slot] = 0
	for _, v := range neighbors {
		row = append(row, arc{id: uint32(v)})
		vslot := v & r.mask
		r.rows[vslot] = append(r.rows[vslot], arc{id: uint32(id)})
	}
	r.rows[slot] = row
	r.m += len(neighbors)
	r.count++
	if c := r.cnt; c != nil {
		c.deg[slot] = int32(len(neighbors))
		for _, v := range neighbors {
			c.deg[v&r.mask]++
		}
		r.countAt(id, true)
	}
	return id
}

// Evict removes the oldest live vertex and its incident edges. It is a
// no-op on an empty window.
func (r *RingGraph) Evict() {
	if r.count == 0 {
		return
	}
	u := r.start
	uslot := u & r.mask
	if r.cnt != nil {
		r.countAt(u, false)
	}
	row := r.rows[uslot][r.heads[uslot]:]
	for _, a := range row {
		// u is v's smallest live neighbor: advance past it.
		vslot := int(a.id) & r.mask
		r.heads[vslot]++
		if r.cnt != nil {
			r.cnt.deg[vslot]--
		}
	}
	r.m -= len(row)
	r.rows[uslot] = r.rows[uslot][:0]
	r.heads[uslot] = 0
	r.start++
	r.count--
}

// countAt adds (appended) or subtracts (evicted) the subgraph copies that
// contain u, counted on the current graph, in which u is linked: Append
// links u before it counts and Evict counts before it unlinks. A copy
// without u is untouched by either mutation, so this is the whole change
// of every total. It also moves the triangle counts of the vertices and
// edges around u by the triangles through u.
//
// With S = N(u), d = |S| and t_uv = |N(v) ∩ S| the triangles on edge uv,
// the copies containing u are:
//
//	wedges     C(d,2) + Σ_{v∈S} (d_v − 1)
//	claws      C(d,3) + Σ_{v∈S} C(d_v − 1, 2)
//	triangles  t_u = |E(G[S])| = Σ_{v∈S} t_uv / 2
//	diamonds   Σ_{v∈S} C(t_uv, 2) + Σ_{e∈G[S]} (t_e − 1)
//	4-cliques  the triangles of G[S]
//	4-paths    Σ_{v∈S} [(Σ_{w∈N(v)} d_w) − d_v − d + 1 − t_uv]  (u an end)
//	         + Σ_{v∈S} [(d − 1)(d_v − 1) − t_uv]                 (u inside)
//	paws       t_u·(d − 2) + Σ_{v∈S} [t_uv·(d_v − 2) + t_v − t_uv]
//	4-cycles   Σ_{x≠u} C(|N(x) ∩ S|, 2)
//
// All degrees and triangle counts are those of the graph holding u;
// t_e − 1 and t_v − t_uv are the counts without u. One walk over the rows
// of S yields every sum: the neighbour degrees, t_uv from the S marks,
// the co-degrees of the 4-cycle term, and G[S] itself.
func (r *RingGraph) countAt(u int, appended bool) {
	c := r.cnt
	mask := r.mask
	uslot := u & mask
	nbrs := r.rows[uslot][r.heads[uslot]:]
	d := int64(len(nbrs))
	for i, a := range nbrs {
		c.sidx[int(a.id)&mask] = int32(i + 1)
	}
	// A stored co-degree is at most the previous base plus capacity − 1,
	// so raising base past that makes every stored entry read as zero.
	c.base += int64(r.capacity) + 1
	base := c.base

	var sum Subgraphs
	var tuSum int64 // Σ t_uv = 2·t_u
	var tips int64  // Σ over arcs of G[S] of t_e without u: twice the sum over its edges
	off, fwd := c.off[:0], c.fwd[:0]
	for i := range nbrs {
		v := nbrs[i].id
		vslot := int(v) & mask
		row := r.rows[vslot]
		lo, hi := r.heads[vslot], len(row)
		dv := int64(hi - lo)
		// Skip the arc to u: the tail of v's row after Append, its head
		// before Evict.
		if appended {
			hi--
		} else {
			lo++
		}
		nbrDeg := d // Σ_{w∈N(v)} d_w, starting with w = u
		var tuv int64
		off = append(off, int32(len(fwd)))
		for j := lo; j < hi; j++ {
			x := row[j].id
			xslot := int(x) & mask
			nbrDeg += int64(c.deg[xslot])
			k := max(c.codeg[xslot]-base, 0)
			sum.Cycles4 += k
			c.codeg[xslot] = base + k + 1
			if si := c.sidx[xslot]; si != 0 { // vx is an edge of G[S]
				tuv++
				if appended {
					tips += int64(row[j].tri)
					row[j].tri++
				} else {
					row[j].tri--
					tips += int64(row[j].tri)
				}
				if x > v {
					fwd = append(fwd, si-1)
				}
			}
		}
		var tvWithout int64
		if appended {
			tvWithout = c.tri[vslot]
			c.tri[vslot] += tuv
			row[len(row)-1].tri = int32(tuv)
			nbrs[i].tri = int32(tuv)
		} else {
			c.tri[vslot] -= tuv
			tvWithout = c.tri[vslot]
		}
		tuSum += tuv
		sum.Wedges += dv - 1
		sum.Claws += (dv - 1) * (dv - 2) / 2
		sum.Diamonds += tuv * (tuv - 1) / 2
		sum.Paths4 += nbrDeg - dv - d + 1 - tuv + (d-1)*(dv-1) - tuv
		sum.Paws += tuv*(dv-2) + tvWithout
	}
	off = append(off, int32(len(fwd)))
	tu := tuSum / 2

	// Triangles of G[S], each found once at its vertex of smallest stored
	// id: mark the forward list of S[i], then look for marks in the
	// forward lists of its members.
	if tu >= 3 {
		c.smark = buf.GrowZero(c.smark, len(nbrs))
		for i := range nbrs {
			fi := fwd[off[i]:off[i+1]]
			if len(fi) < 2 {
				continue
			}
			for _, j := range fi {
				c.smark[j] = int32(i + 1)
			}
			for _, j := range fi {
				for _, k := range fwd[off[j]:off[j+1]] {
					if c.smark[k] == int32(i+1) {
						sum.Cliques4++
					}
				}
			}
		}
	}
	c.off, c.fwd = off, fwd
	for _, a := range nbrs {
		c.sidx[int(a.id)&mask] = 0
	}
	if appended {
		c.tri[uslot] = tu
	} else {
		c.tri[uslot] = 0
	}

	sum.Wedges += d * (d - 1) / 2
	sum.Claws += d * (d - 1) * (d - 2) / 6
	sum.Triangles = tu
	sum.Diamonds += tips / 2
	sum.Paws += tu * (d - 2)
	sign := int64(1)
	if !appended {
		sign = -1
	}
	c.totals.add(sum, sign)
}

// ToCSR materializes the live window into g as a CSR graph with vertices
// renumbered to 0..Len()-1 in window order (logical id minus Start). The
// snapshot lists the edges as BuildUnchecked would receive them and goes
// through the same counting-sort build as the batch visibility
// constructors, so a RingGraph holding the same edge set as a batch-built
// window produces a bit-identical CSR layout — the property mvg.Stream's
// determinism contract rests on. All of g's storage is reused across
// snapshots.
func (r *RingGraph) ToCSR(g *Graph) {
	el := buf.Grow(g.elist, 2*r.m)[:0]
	start := uint32(r.start)
	for k := 0; k < r.count; k++ {
		id := start + uint32(k)
		slot := int(id) & r.mask
		for _, a := range r.rows[slot][r.heads[slot]:] {
			// Each edge appears in both endpoint rows; emit it from the
			// higher endpoint so every edge is listed exactly once.
			if a.id < id {
				el = append(el, int32(a.id-start), int32(k))
			}
		}
	}
	g.n, g.m, g.elist = r.count, r.m, el
	g.build()
}
