package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// repeatRuns runs the workload n times, each in a fresh process with seeds
// seed, seed+1, ..., and prints every metric's median, quartiles and
// spread. Its last line is a result whose metrics are the medians. It
// returns the exit code.
func repeatRuns(opt options, n int, out io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	summary := result{Correct: true, Metrics: map[string]metric{}}
	var hashes string
	for i := 0; i < n; i++ {
		seed := opt.seed + int64(i)
		trace := "0"
		if opt.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "-workload", opt.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace,
			"-spans", opt.spansDir, "-workdir", opt.workDir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err != nil || json.Unmarshal(lines[len(lines)-1], &res) != nil {
			fmt.Fprintf(os.Stderr, "bench: run with seed %d failed: %v\n", seed, err)
			return 1
		}
		fmt.Fprintf(out, "seed %d: %s\n", seed, lines[len(lines)-1])
		// Fixtures are trained from a fixed seed: every run must save the
		// same bytes.
		for _, l := range lines {
			if bytes.HasPrefix(l, []byte("models ")) {
				if hashes == "" {
					hashes = string(l)
					fmt.Fprintln(out, hashes)
				} else if string(l) != hashes {
					fmt.Fprintf(os.Stderr, "bench: seed %d saved different models: %s\n", seed, l)
					summary.Correct = false
				}
			}
		}
		summary.Correct = summary.Correct && res.Correct
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-30s %12s %12s %12s %10s %10s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, name := range names {
		v := values[name]
		q1, q2, q3 := quartiles(v)
		fmt.Fprintf(out, "%-30s %12.4f %12.4f %12.4f %10.4f %10.4f\n",
			name, q2, q1, q3, (q3-q1)/q2, (slices.Max(v)-slices.Min(v))/q2)
		summary.Metrics[name] = metric{Value: q2, Unit: units[name]}
	}
	line, _ := json.Marshal(summary)
	fmt.Fprintln(out, string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := slices.Clone(values)
	sort.Float64s(data)
	ld := len(data)
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
