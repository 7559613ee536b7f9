// Command mvgbench regenerates the paper's evaluation tables and figures
// on the synthetic dataset suite. -exp takes one id of
// experiments.Experiments (fig2, table2, fig3 … fig10, throughput,
// stream), extras, or all; README.md ("Tools") lists the common runs.
//
// Usage:
//
//	mvgbench -exp all                  # every experiment, quick mode
//	mvgbench -exp table3 -full         # one experiment at the paper's scale
//	mvgbench -exp table2 -datasets SynthECG,ChaosMaps -repeats 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mvg/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: "+strings.Join(experiments.Experiments, ", ")+" or all")
		seed     = flag.Int64("seed", 1, "suite generation / training seed")
		full     = flag.Bool("full", false, "full-scale run (paper-sized grids and datasets); default is quick mode")
		datasets = flag.String("datasets", "", "comma-separated dataset filter (default: all 13)")
		repeats  = flag.Int("repeats", 1, "repetitions to average accuracy over (the paper uses 5)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Out:     os.Stdout,
		Seed:    *seed,
		Quick:   !*full,
		Repeats: *repeats,
	}
	if *datasets != "" {
		for _, d := range strings.Split(*datasets, ",") {
			if d = strings.TrimSpace(d); d != "" {
				cfg.Datasets = append(cfg.Datasets, d)
			}
		}
	}

	mode := "quick"
	if *full {
		mode = "full"
	}
	fmt.Printf("mvgbench: exp=%s mode=%s seed=%d repeats=%d\n\n", *exp, mode, *seed, cfg.Repeats)
	start := time.Now()
	if err := experiments.NewRunner(cfg).Run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "mvgbench:", err)
		os.Exit(1)
	}
	fmt.Printf("done in %.1fs\n", time.Since(start).Seconds())
}
