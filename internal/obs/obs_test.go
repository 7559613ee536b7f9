package obs

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWritePrometheus pins the text format: families in declaration
// order, a vector with no series as HELP and TYPE only, series sorted by
// label values as a tuple (not as the joined string: "a" < "a b" must
// win over the second label), quoted label values, and histogram buckets
// counting an observation on a bound in that bound's bucket.
func TestWritePrometheus(t *testing.T) {
	var r Registry
	g := r.Gauge("z_gauge", "Declared first.")
	r.CounterVec("empty_total", "No series yet.", "k")
	v := r.CounterVec("pairs_total", "Two labels.", "x", "y")
	h := r.Histogram("h", "Three bounds.", 0.5, 1, 2.5)
	c := r.Counter("a_total", "Declared last.")

	g.Add(3)
	g.Add(-5)
	v.With("a b", "a").Add(2)
	v.With("a", "z").Inc()
	v.With(`q"\`, "").Inc()
	for _, x := range []float64{0.25, 1, 3, 1} {
		h.Observe(x)
	}
	c.Inc()

	want := `# HELP z_gauge Declared first.
# TYPE z_gauge gauge
z_gauge -2
# HELP empty_total No series yet.
# TYPE empty_total counter
# HELP pairs_total Two labels.
# TYPE pairs_total counter
pairs_total{x="a",y="z"} 1
pairs_total{x="a b",y="a"} 2
pairs_total{x="q\"\\",y=""} 1
# HELP h Three bounds.
# TYPE h histogram
h_bucket{le="0.5"} 1
h_bucket{le="1"} 3
h_bucket{le="2.5"} 3
h_bucket{le="+Inf"} 4
h_sum 5.25
h_count 4
# HELP a_total Declared last.
# TYPE a_total counter
a_total 1
`
	if got := scrape(t, &r); got != want {
		t.Fatalf("scrape:\n%s\nwant:\n%s", got, want)
	}
}

// TestWithAllocFree: looking up an existing series allocates nothing, so
// per-request recording stays off the heap.
func TestWithAllocFree(t *testing.T) {
	var r Registry
	v := r.CounterVec("requests_total", "By route and code.", "route", "code")
	v.With("predict", "200").Inc()
	if n := testing.AllocsPerRun(100, func() { v.With("predict", "200").Inc() }); n != 0 {
		t.Fatalf("With on an existing series: %v allocs, want 0", n)
	}
}

// TestConcurrentRecording records from many goroutines while scraping;
// run with -race. Every increment must land.
func TestConcurrentRecording(t *testing.T) {
	var r Registry
	v := r.CounterVec("c_total", "Counter vector.", "k")
	gv := r.GaugeVec("g", "Gauge vector.", "k")
	h := r.Histogram("h", "Histogram.", 1)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v.With(key).Inc()
				gv.With(key).Add(1)
				gv.With(key).Add(-1)
				h.Observe(float64(i % 2))
				if i%100 == 0 {
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}(string(rune('a' + w%3)))
	}
	wg.Wait()
	var total uint64
	for _, k := range []string{"a", "b", "c"} {
		total += v.With(k).Value()
		if g := gv.With(k).Value(); g != 0 {
			t.Errorf("gauge %s = %d, want 0", k, g)
		}
	}
	if total != workers*each {
		t.Fatalf("counted %d increments, want %d", total, workers*each)
	}
}
