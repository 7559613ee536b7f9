// Command benchtable renders the end-to-end benchmark table of every
// BENCH_<pr>.json trajectory file at the repository root into
// docs/perf.md, between the markers
//
//	<!-- BENCH_<pr>.json begin -->
//	<!-- BENCH_<pr>.json end -->
//
// A trajectory file holds every run of one change's alternating
// parent/change pairs of `bash bench/run.sh`, each metric's median and
// quartiles on each side, the machine fingerprint and the model hashes
// the runs printed. The table is computed from the runs, and the tool
// refuses a file whose stored summary disagrees with them. A run that
// exited non-zero (bench refuses a run whose load generator fell behind
// its schedule) is counted in the first table but has no metrics, so
// the summaries and the pair counts leave out its whole pair. CI
// regenerates the tables and fails when the committed docs/perf.md
// differs.
//
// Usage, from the repository root:
//
//	go run ./.github/benchtable
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// trajectory is one BENCH_<pr>.json file.
type trajectory struct {
	Change      string            `json:"change"`
	Command     string            `json:"command"`
	Order       string            `json:"order"`
	Fingerprint map[string]any    `json:"fingerprint"`
	ModelHashes map[string]string `json:"model_hashes"`
	Metrics     []metricSpec      `json:"metrics"`
	Workloads   []workload        `json:"workloads"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

type workload struct {
	Name    string                       `json:"name"`
	Runs    []run                        `json:"runs"`
	Summary map[string]map[string]spread `json:"summary"` // metric → side → spread
}

// run is one process of bench/run.sh.
type run struct {
	Seed      int64              `json:"seed"`
	Side      string             `json:"side"` // "parent" or "change"
	First     bool               `json:"first"`
	Exit      int                `json:"exit"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	LateSends int                `json:"late_sends"` // sends over 20 ms late
	Metrics   map[string]float64 `json:"metrics"`
}

// spread is a median and its quartiles.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// doc is the document holding the tables.
const doc = "docs/perf.md"

func main() {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		fatal(err)
	}
	text, err := os.ReadFile(doc)
	if err != nil {
		fatal(err)
	}
	for _, f := range files {
		tr, err := load(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", f, err))
		}
		if text, err = splice(text, f, render(tr)); err != nil {
			fatal(fmt.Errorf("%s: %w", doc, err))
		}
	}
	if err := os.WriteFile(doc, text, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtable:", err)
	os.Exit(1)
}

// load reads a trajectory and checks that its stored summary is what its
// runs give.
func load(path string) (*trajectory, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr trajectory
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		return nil, err
	}
	for _, w := range tr.Workloads {
		for _, m := range tr.Metrics {
			for _, side := range []string{"parent", "change"} {
				got := quartiles(values(w, m.Name, side))
				want := w.Summary[m.Name][side]
				if !close4(got, want) {
					return nil, fmt.Errorf("%s %s %s: summary %+v, runs give %+v", w.Name, m.Name, side, want, got)
				}
			}
		}
	}
	return &tr, nil
}

// close4 compares two spreads to the four significant digits a summary
// is written with.
func close4(a, b spread) bool {
	eq := func(x, y float64) bool { return math.Abs(x-y) <= 5e-5*max(math.Abs(x), math.Abs(y)) }
	return eq(a.Q1, b.Q1) && eq(a.Median, b.Median) && eq(a.Q3, b.Q3)
}

// values returns one side's values of a metric over the complete pairs,
// in run order.
func values(w workload, metric, side string) []float64 {
	done := complete(w)
	var v []float64
	for _, r := range w.Runs {
		if r.Side == side && done[r.Seed] {
			v = append(v, r.Metrics[metric])
		}
	}
	return v
}

// complete returns the seeds whose parent and change runs both exited 0.
func complete(w workload) map[int64]bool {
	exited := map[int64]int{}
	for _, r := range w.Runs {
		if r.Exit == 0 {
			exited[r.Seed]++
		}
	}
	done := map[int64]bool{}
	for seed, k := range exited {
		done[seed] = k == 2
	}
	return done
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4), the method bench/repeat.go uses.
func quartiles(values []float64) spread {
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	switch ld {
	case 0:
		return spread{}
	case 1:
		return spread{data[0], data[0], data[0]}
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return spread{cut(1), cut(2), cut(3)}
}

// render returns the markdown block of one trajectory.
func render(tr *trajectory) string {
	var b strings.Builder
	fp := tr.Fingerprint
	fmt.Fprintf(&b, "%s: `%s`, %s. Host: %v, %v/%v, nproc %v, GOMAXPROCS %v, %v.\n\n",
		tr.Change, tr.Command, tr.Order, fp["cpu"], fp["goos"], fp["goarch"], fp["nproc"], fp["gomaxprocs"], fp["go"])
	b.WriteString("| workload | pairs | seeds | exit ≠ 0 | incorrect | failed ops, parent / change | runs with late sends, parent / change |\n")
	b.WriteString("|---|---:|---|---:|---:|---:|---:|\n")
	for _, w := range tr.Workloads {
		var seeds []int64
		var exited, incorrect int
		var failed, late [2]int
		for _, r := range w.Runs {
			s := 0
			if r.Side == "change" {
				s = 1
				seeds = append(seeds, r.Seed)
			}
			if r.Exit != 0 {
				exited++
			}
			if r.Exit == 0 && !r.Correct {
				incorrect++
			}
			failed[s] += r.Failed
			if r.LateSends > 0 {
				late[s]++
			}
		}
		fmt.Fprintf(&b, "| `%s` | %d | %s | %d | %d | %d / %d | %d / %d |\n",
			w.Name, len(seeds), seedRange(seeds), exited, incorrect, failed[0], failed[1], late[0], late[1])
	}
	b.WriteString("\n| workload | metric | parent, median [q1, q3] | change, median [q1, q3] | change | change better in |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|\n")
	for _, w := range tr.Workloads {
		for _, m := range tr.Metrics {
			p := quartiles(values(w, m.Name, "parent"))
			c := quartiles(values(w, m.Name, "change"))
			won, pairs := wins(w, m)
			fmt.Fprintf(&b, "| `%s` | `%s` (%s) | %s | %s | %+.1f%% | %d of %d pairs |\n",
				w.Name, m.Name, m.Unit, format(p), format(c), 100*(c.Median-p.Median)/p.Median, won, pairs)
		}
	}
	return b.String()
}

// wins counts the complete pairs in which the change read better than
// the parent; ties count for neither.
func wins(w workload, m metricSpec) (won, pairs int) {
	done := complete(w)
	parent := map[int64]float64{}
	for _, r := range w.Runs {
		if r.Side == "parent" && done[r.Seed] {
			parent[r.Seed] = r.Metrics[m.Name]
		}
	}
	for _, r := range w.Runs {
		if r.Side != "change" || !done[r.Seed] {
			continue
		}
		pairs++
		p, c := parent[r.Seed], r.Metrics[m.Name]
		if (m.Better == "lower" && c < p) || (m.Better == "higher" && c > p) {
			won++
		}
	}
	return won, pairs
}

func format(s spread) string {
	return fmt.Sprintf("%s [%s, %s]", num(s.Median), num(s.Q1), num(s.Q3))
}

// num prints a value with three decimals below 10 and two above.
func num(v float64) string {
	if math.Abs(v) < 10 {
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func seedRange(seeds []int64) string {
	if len(seeds) == 0 {
		return ""
	}
	lo, hi := slices.Min(seeds), slices.Max(seeds)
	if hi-lo+1 == int64(len(seeds)) {
		return fmt.Sprintf("%d–%d", lo, hi)
	}
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, ", ")
}

// splice replaces the block between file's markers in text with body.
func splice(text []byte, file, body string) ([]byte, error) {
	begin := fmt.Sprintf("<!-- %s begin -->\n", file)
	end := fmt.Sprintf("<!-- %s end -->", file)
	s := string(text)
	i := strings.Index(s, begin)
	j := strings.Index(s, end)
	if i < 0 || j < i {
		return nil, fmt.Errorf("no %q … %q block", strings.TrimSpace(begin), end)
	}
	return []byte(s[:i+len(begin)] + body + s[j:]), nil
}
