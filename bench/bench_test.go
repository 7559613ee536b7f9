package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmoke runs every workload briefly at a tenth of its load,
// untraced and traced, and checks each result against BENCHMARK.json:
// every metric it names is reported with its unit and a finite value,
// nothing failed, and the fleet's client, proxy and replica spans link.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			if findWorkload(sw.Name) == nil {
				t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
			}
			for _, trace := range []bool{false, true} {
				opt := options{
					workload: sw.Name, seed: 3, seconds: 1, warmup: 0.5, trace: trace,
					spansDir: t.TempDir(), workDir: t.TempDir(), setups: 2, scale: 0.1,
				}
				res, err := execute(context.Background(), opt, io.Discard)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d of %d", trace, res.Correct, res.Failed, res.Attempted)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics reported, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("trace=%v: metric %s = %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("trace=%v: result does not encode: %v", trace, err)
				}
				if trace {
					checkLayers(t, opt)
				}
			}
		})
	}
}

// checkLayers reads a traced run's layer table and checks its spans link
// and its stage replay accounts for the extraction time.
func checkLayers(t *testing.T, opt options) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(opt.spansDir, opt.workload+".layers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer map[string]metric `json:"per_layer"`
		Extra    map[string]float64
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if f := doc.Extra["spans.linked_frac"]; f < 0.99 {
		t.Errorf("only %.3f of measured requests have linked spans", f)
	}
	if opt.workload == "online_fleet" && doc.Extra["proxy.self_ms"] <= 0 {
		t.Errorf("fleet run has no proxy hop: %v", doc.Extra)
	}
	if c := doc.PerLayer["core.stage_coverage"].Value; c < 0.9 || c > 1.1 {
		t.Errorf("stages cover %.3f of extraction time", c)
	}
	if _, err := os.Stat(filepath.Join(opt.spansDir, opt.workload+".spans.jsonl")); err != nil {
		t.Error(err)
	}
}

// TestQuartilesMatchPython pins -repeat's quartiles to Python's
// statistics.quantiles(values, n=4), its default "exclusive" method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}
