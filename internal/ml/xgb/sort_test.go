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
