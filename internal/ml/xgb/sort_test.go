package xgb

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// byValue is the comparator the split scan sorted with before sortPairs:
// pdqsort uses a comparator only as "cmp(a, b) < 0", which holds exactly
// when a.v < b.v. It is the reference sortPairs must match.
func byValue(a, b valueRow) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// tieHeavy returns n rows 0..n-1 whose values take one of a random
// number of levels, from all equal to all distinct.
func tieHeavy(rng *rand.Rand, n int) []valueRow {
	levels := 1 + rng.Intn(n+1)
	out := make([]valueRow, n)
	for i := range out {
		out[i] = valueRow{float64(rng.Intn(levels)), i}
	}
	return out
}

// rowsOf numbers values as the split scan does: row i holds vs[i].
func rowsOf(vs []float64) []valueRow {
	out := make([]valueRow, len(vs))
	for i, v := range vs {
		out[i] = valueRow{v, i}
	}
	return out
}

// checkSortPairs sorts two copies of in, one with sortPairs and one with
// slices.SortFunc(·, byValue), and fails unless they agree element by
// element: the same value bits at the same row.
func checkSortPairs(t *testing.T, name string, in []valueRow) {
	t.Helper()
	got, want := slices.Clone(in), slices.Clone(in)
	sortPairs(got)
	slices.SortFunc(want, byValue)
	for k := range want {
		if got[k].row != want[k].row || math.Float64bits(got[k].v) != math.Float64bits(want[k].v) {
			t.Fatalf("%s (%d rows): position %d holds row %d (%v), slices.SortFunc put row %d (%v)",
				name, len(in), k, got[k].row, got[k].v, want[k].row, want[k].v)
		}
	}
}

func TestSortPairsMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkSortPairs(t, "tie-heavy", tieHeavy(rng, rng.Intn(301)))
	}
	for _, n := range []int{0, 1, 2, 7, 12, 13, 49, 50, 51, 64, 300, 1000} {
		asc, desc, equal, pipe := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			asc[i] = float64(i)
			desc[i] = float64(n - i)
			equal[i] = 3
			pipe[i] = float64(min(i, n-1-i))
		}
		checkSortPairs(t, "presorted", rowsOf(asc))
		checkSortPairs(t, "reversed", rowsOf(desc))
		checkSortPairs(t, "all-equal", rowsOf(equal))
		checkSortPairs(t, "organ-pipe", rowsOf(pipe))
	}
}

// FuzzSortPairs compares sortPairs with slices.SortFunc on fuzzed
// inputs. With levels > 0 every byte is one row's value modulo levels,
// which makes ties; with levels == 0 every eight bytes are one float64,
// NaNs, infinities and signed zeros included.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}, uint8(4))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(7))
	f.Add(make([]byte, 64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, levels uint8) {
		var vs []float64
		if levels == 0 {
			for len(data) >= 8 {
				vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			}
		} else {
			for _, b := range data {
				vs = append(vs, float64(b%levels))
			}
		}
		checkSortPairs(t, "fuzzed", rowsOf(vs))
	})
}

// checkPresortedOrder checks the facts the split scan reads a node's pairs
// by, on the rows subset (ascending) of a column whose row i holds vs[i].
// It reads the subset's pairs off the trainer's (value, row) presort of
// every row, as a tree does, and sorts them with sortPairs from row
// order, as the node would. When the subset has at most maxInsertion
// rows, or no two of its values tie, the two orders must agree pair by
// pair; otherwise they must agree before the first tie.
func checkPresortedOrder(t *testing.T, vs []float64, subset []int) {
	t.Helper()
	if len(subset) == 0 {
		return
	}
	X := make([][]float64, len(vs))
	for i, v := range vs {
		X[i] = []float64{v}
	}
	b := newTreeBuilder(X, Params{}, 1, nil, nil, nil)
	b.startRound(subset)
	seg := make([]valueRow, len(vs))
	filter(seg, b.presorted[0], b.keep)
	seg = seg[:len(subset)]
	want := make([]valueRow, len(subset))
	for k, i := range subset {
		want[k] = valueRow{vs[i], i}
	}
	sortPairs(want)
	agree := len(seg)
	if len(seg) > maxInsertion {
		for k := 0; k+1 < len(seg); k++ {
			if seg[k].v == seg[k+1].v {
				agree = k
				break
			}
		}
	}
	for k := 0; k < agree; k++ {
		if seg[k].row != want[k].row || math.Float64bits(seg[k].v) != math.Float64bits(want[k].v) {
			t.Fatalf("%d rows: presorted position %d holds row %d (%v), sortPairs put row %d (%v)",
				len(seg), k, seg[k].row, seg[k].v, want[k].row, want[k].v)
		}
	}
}

// tieHeavyValues returns n values drawn from a few levels, or continuous
// and clipped at zero from one side, with each zero's sign drawn.
func tieHeavyValues(rng *rand.Rand, n int) []float64 {
	levels := rng.Intn(n+2) - 1 // -1: continuous
	clip := rng.Intn(3)         // 1: below, 2: above
	vs := make([]float64, n)
	for i := range vs {
		v := rng.NormFloat64()
		switch {
		case levels >= 0:
			v = float64(rng.Intn(levels + 1))
		case clip == 1:
			v = max(v, 0)
		case clip == 2:
			v = min(v, 0)
		}
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		vs[i] = v
	}
	return vs
}

func TestPresortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vs := tieHeavyValues(rng, rng.Intn(120))
		keep := rng.Float64()
		var subset []int
		for row := range vs {
			if rng.Float64() < keep {
				subset = append(subset, row)
			}
		}
		checkPresortedOrder(t, vs, subset)
	}
}

// FuzzPresortedOrder runs checkPresortedOrder on fuzzed columns and row
// subsets. Byte i of data, b, gives row i's value: (b>>1) modulo
// levels+1, with b's low bit as the sign of a zero. Bit i of mask leaves
// row i out of the subset; rows past the mask stay in.
func FuzzPresortedOrder(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}, uint8(3), []byte{0x21})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(6), []byte{})
	f.Add(make([]byte, 40), uint8(0), []byte{0x0f, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte, levels uint8, mask []byte) {
		vs := make([]float64, len(data))
		var subset []int
		for i, b := range data {
			vs[i] = float64(int(b>>1) % (int(levels) + 1))
			if vs[i] == 0 && b&1 == 1 {
				vs[i] = math.Copysign(0, -1)
			}
			if i/8 >= len(mask) || mask[i/8]>>(i%8)&1 == 0 {
				subset = append(subset, i)
			}
		}
		checkPresortedOrder(t, vs, subset)
	})
}

// BenchmarkSplitSort sorts one fixed set of 256 node-sized, tie-heavy
// inputs (2–62 rows) per op, with sortPairs and with the generic sort it
// replaced. CI gates /specialised against /slices in the same run.
func BenchmarkSplitSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]valueRow, 256)
	for i := range inputs {
		inputs[i] = tieHeavy(rng, 2+rng.Intn(61))
	}
	work := make([]valueRow, 62)
	for _, arm := range []struct {
		name string
		sort func([]valueRow)
	}{
		{"specialised", sortPairs},
		{"slices", func(p []valueRow) { slices.SortFunc(p, byValue) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, in := range inputs {
					arm.sort(work[:copy(work, in)])
				}
			}
		})
	}
}
