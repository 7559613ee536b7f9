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
// refuses a file whose stored summary disagrees with them. Beside each
// side's median and quartiles it prints each metric's paired gain, the
// per-seed difference signed so that positive means the change read
// better, with the pairs won and a signed-rank p. A run that exited
// non-zero (bench refuses a run whose load generator fell behind its
// schedule) is counted in the first table but has no metrics, so the
// summaries and the pair counts leave out its whole pair. CI
// regenerates the tables and fails when the committed docs/perf.md
// differs.
//
// Usage, from the repository root:
//
//	go run ./.github/benchtable
package main

import (
	"bytes"
	"cmp"
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
	b.WriteString("\n| workload | metric | parent, median [q1, q3] | change, median [q1, q3] | change | change better in | paired gain, median [q1, q3] | signed-rank p |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|\n")
	for _, w := range tr.Workloads {
		for _, m := range tr.Metrics {
			p := quartiles(values(w, m.Name, "parent"))
			c := quartiles(values(w, m.Name, "change"))
			g := gains(w, m)
			won := 0
			for _, d := range g {
				if d > 0 {
					won++
				}
			}
			fmt.Fprintf(&b, "| `%s` | `%s` (%s) | %s | %s | %+.1f%% | %d of %d pairs | %s | %.2g |\n",
				w.Name, m.Name, m.Unit, format(p), format(c), 100*(c.Median-p.Median)/p.Median, won, len(g),
				format(quartiles(g)), signedRankP(g))
		}
	}
	return b.String()
}

// gains returns the per-seed differences of a metric over the complete
// pairs, in run order, signed so that a positive gain means the change
// read better than the parent.
func gains(w workload, m metricSpec) []float64 {
	done := complete(w)
	parent := map[int64]float64{}
	for _, r := range w.Runs {
		if r.Side == "parent" && done[r.Seed] {
			parent[r.Seed] = r.Metrics[m.Name]
		}
	}
	var g []float64
	for _, r := range w.Runs {
		if r.Side != "change" || !done[r.Seed] {
			continue
		}
		d := r.Metrics[m.Name] - parent[r.Seed]
		if m.Better == "lower" {
			d = -d
		}
		g = append(g, d)
	}
	return g
}

// exactPairs is the largest number of non-zero differences whose
// signed-rank p is counted exactly; above it the normal approximation
// is used.
const exactPairs = 20

// signedRankP returns the two-sided p-value of the Wilcoxon signed-rank
// test on paired differences: zero differences are dropped and tied
// magnitudes share their midrank. Up to exactPairs differences the
// p-value counts, over all 2ⁿ sign assignments of the observed ranks,
// those whose positive-rank sum lies at least as far from its mean as
// the observed one (n wins of n give 2¹⁻ⁿ). Above that it uses the
// normal approximation with the tie-corrected variance, as
// internal/stats.Wilcoxon does for the paper's tables.
func signedRankP(diffs []float64) float64 {
	var nz []float64
	for _, d := range diffs {
		if d != 0 {
			nz = append(nz, d)
		}
	}
	n := len(nz)
	if n == 0 {
		return 1
	}
	// Twice the midranks of |d|, which are integers.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(math.Abs(nz[a]), math.Abs(nz[b])) })
	rank2 := make([]int, n)
	ties := 0.0 // Σ(t³ − t) over groups of tied magnitudes
	for i := 0; i < n; {
		j := i
		for j+1 < n && math.Abs(nz[order[j+1]]) == math.Abs(nz[order[i]]) {
			j++
		}
		for k := i; k <= j; k++ {
			rank2[order[k]] = i + j + 2 // (i+1) + (j+1): twice the midrank
		}
		t := float64(j - i + 1)
		ties += t*t*t - t
		i = j + 1
	}
	total, obs := 0, 0
	for i, d := range nz {
		total += rank2[i]
		if d > 0 {
			obs += rank2[i]
		}
	}
	// Distances from the mean are compared doubled: |2·W₊ − Σ| in units
	// of doubled ranks, so every quantity stays an integer.
	dist := func(w int) int { return max(2*w-total, total-2*w) }
	if n > exactPairs {
		fn := float64(n)
		variance := fn*(fn+1)*(2*fn+1)/24 - ties/48
		if variance <= 0 {
			return 1
		}
		z := float64(dist(obs)) / 4 / math.Sqrt(variance)
		return min(1, math.Erfc(z/math.Sqrt2))
	}
	// counts[w] is the number of sign assignments whose doubled
	// positive-rank sum is w.
	counts := make([]float64, total+1)
	counts[0] = 1
	top := 0
	for _, r := range rank2 {
		for w := top; w >= 0; w-- {
			counts[w+r] += counts[w]
		}
		top += r
	}
	extreme := 0.0
	for w, c := range counts {
		if dist(w) >= dist(obs) {
			extreme += c
		}
	}
	return extreme / math.Ldexp(1, n)
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
