package motif

import (
	"testing"

	"mvg/internal/graph"
	"mvg/internal/visibility"
)

// maxFuzzSeries bounds the decoded series so the O(n⁴) oracle stays fast.
const maxFuzzSeries = 24

// graphFromBytes decodes fuzz bytes into a graph on at most 16 vertices:
// the first byte picks n, and the bits of the rest, least significant
// first, say which of the C(n,2) vertex pairs (i<j, row-major) are edges.
// Missing bytes read as zero bits.
func graphFromBytes(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.FromEdgesUnchecked(0, nil)
	}
	n := int(data[0]) % 17
	bits := data[1:]
	var edges [][2]int
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if k/8 < len(bits) && bits[k/8]>>(k%8)&1 == 1 {
				edges = append(edges, [2]int{i, j})
			}
			k++
		}
	}
	return graph.FromEdgesUnchecked(n, edges)
}

// tieSeriesFromBytes decodes fuzz bytes into a series on five levels, one
// point per byte, so runs of equal values and repeated peaks are the norm:
// the inputs where the visibility builders' tie rules shape the graph.
func tieSeriesFromBytes(data []byte) []float64 {
	if len(data) > maxFuzzSeries {
		data = data[:maxFuzzSeries]
	}
	series := make([]float64, len(data))
	for i, b := range data {
		series[i] = float64(b % 5)
	}
	return series
}

// FuzzCountAgainstBrute differentially fuzzes Count against the
// enumeration oracle CountBrute on two decodings of the same bytes: an
// arbitrary graph on at most 16 vertices, and the VG and HVG of a
// tie-heavy series. One Counter serves all three graphs, so its scratch
// tables are reused across different vertex counts as in production.
func FuzzCountAgainstBrute(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0b00111111})       // K4
	f.Add([]byte{5, 0b10011011, 0b10}) // C5 plus the chord 0-2
	f.Add([]byte{16, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // K16
	f.Add([]byte{0, 0, 0, 0, 4, 4, 4, 0, 0, 4, 2, 2, 4, 1, 3, 1, 3})
	f.Add([]byte{16, 0x5a, 0xa5, 0x3c, 0xc3, 0x0f, 0xf0, 0x99, 0x66, 0x12, 0x34,
		0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77})

	f.Fuzz(func(t *testing.T, data []byte) {
		var ctr Counter
		check := func(name string, g *graph.Graph) {
			if got, want := ctr.Count(g), CountBrute(g); got != want {
				t.Fatalf("%s (n=%d m=%d): Count = %+v, brute force = %+v", name, g.N(), g.M(), got, want)
			}
		}
		check("graph", graphFromBytes(data))

		series := tieSeriesFromBytes(data)
		if len(series) < 2 {
			return
		}
		vg, err := visibility.VG(series)
		if err != nil {
			t.Fatal(err)
		}
		check("vg", vg)
		hvg, err := visibility.HVG(series)
		if err != nil {
			t.Fatal(err)
		}
		check("hvg", hvg)
	})
}
