// Package obs is the serving stack's metrics layer: counters, gauges and
// fixed-bucket histograms, unlabelled or (counters and gauges) as
// labelled vectors, declared on a Registry that renders them in the
// Prometheus text exposition format, version 0.0.4. mvgserve and
// mvgproxy declare their families here; no other code writes the format.
//
// A family is one metric name with its # HELP and # TYPE lines and its
// series. A scrape is deterministic: families come out in declaration
// order, and each vector's series sorted by label values.
package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds metric families in declaration order. Declare every
// family before the registry is shared; recording and WritePrometheus are
// then safe for concurrent use. The zero value is an empty registry.
type Registry struct {
	families []family
}

type family struct {
	name, help, typ string
	m               metric
}

// metric appends a family's sample lines, each starting with series: the
// family name, plus the label set for one series of a vector.
type metric interface {
	appendSamples(b []byte, series string) []byte
}

func (r *Registry) declare(name, help, typ string, m metric) {
	r.families = append(r.families, family{name: name, help: help, typ: typ, m: m})
}

// Counter declares an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.declare(name, help, "counter", c)
	return c
}

// Gauge declares an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.declare(name, help, "gauge", g)
	return g
}

// CounterVec declares a counter with one series per combination of values
// of labels. A vector with no series yet renders its HELP and TYPE lines
// only.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{vec{labels: labels, series: map[string]*series{}, mk: func() metric { return new(Counter) }}}
	r.declare(name, help, "counter", v)
	return v
}

// GaugeVec declares a gauge with one series per combination of values of
// labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{vec{labels: labels, series: map[string]*series{}, mk: func() metric { return new(Gauge) }}}
	r.declare(name, help, "gauge", v)
	return v
}

// Histogram declares a histogram over ascending bucket upper bounds; an
// implicit +Inf bucket counts every observation.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.declare(name, help, "histogram", h)
	return h
}

// WritePrometheus renders every family in the Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b []byte
	for _, f := range r.families {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		b = f.m.appendSamples(b, f.name)
	}
	_, err := w.Write(b)
	return err
}

// Counter is a count that only goes up.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) appendSamples(b []byte, series string) []byte {
	return fmt.Appendf(b, "%s %d\n", series, c.Value())
}

// Gauge is a value that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Add adds n, which may be negative.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) appendSamples(b []byte, series string) []byte {
	return fmt.Appendf(b, "%s %d\n", series, g.Value())
}

// CounterVec is a labelled counter family.
type CounterVec struct{ vec }

// With returns the series for one value per label, in declaration order,
// creating it at zero on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values).(*Counter) }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ vec }

// With returns the series for one value per label, in declaration order,
// creating it at zero on first use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.with(values).(*Gauge) }

// vec is the series table behind CounterVec and GaugeVec. Series are
// never deleted.
type vec struct {
	labels []string
	mk     func() metric

	mu     sync.Mutex
	series map[string]*series // key: label values, each NUL-terminated (label values hold no NUL)
}

type series struct {
	values []string
	m      metric
}

func (v *vec) with(values []string) metric {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for labels %v", len(values), v.labels))
	}
	// Build the key on the stack: the map lookup then allocates nothing
	// on the per-request path once a series exists.
	var buf [64]byte
	key := buf[:0]
	for _, s := range values {
		key = append(append(key, s...), 0)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[string(key)]
	if !ok {
		s = &series{values: slices.Clone(values), m: v.mk()}
		v.series[string(key)] = s
	}
	return s.m
}

func (v *vec) appendSamples(b []byte, name string) []byte {
	v.mu.Lock()
	all := make([]*series, 0, len(v.series))
	for _, s := range v.series {
		all = append(all, s)
	}
	v.mu.Unlock()
	slices.SortFunc(all, func(x, y *series) int { return slices.Compare(x.values, y.values) })
	for _, s := range all {
		id := []byte(name + "{")
		for i, l := range v.labels {
			if i > 0 {
				id = append(id, ',')
			}
			id = append(id, l...)
			id = append(id, '=')
			id = strconv.AppendQuote(id, s.values[i])
		}
		id = append(id, '}')
		b = s.m.appendSamples(b, string(id))
	}
	return b
}

// Histogram is a fixed-bucket cumulative histogram: bucket i counts the
// observations ≤ bounds[i].
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64 // per bucket, not cumulative; the last is +Inf
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

func (h *Histogram) appendSamples(b []byte, name string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		b = fmt.Appendf(b, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum)
	}
	cum += h.counts[len(h.bounds)]
	b = fmt.Appendf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	return fmt.Appendf(b, "%s_sum %g\n%s_count %d\n", name, h.sum, name, cum)
}
