// Command experiments regenerates the paper's tables and figures on
// the simulated NPU.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig3,fig9,table3 -parallel 4
//
// Available experiments: fig3, fig4, fig9, fig10, fig15, fig16, fig17,
// fig18, table2, table3, fitcost, inference, throughput, coarse,
// modelfree, uncore, sensitivity, faisweep, seeds, pareto,
// attribution, search.
//
// Reports go to stdout in canonical registry order; per-experiment
// wall times go to stderr, so the stdout stream (and -out files) are
// byte-identical whether experiments run serially or in parallel.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"npudvfs/internal/experiments"
	"npudvfs/internal/plot"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment names, or 'all'")
	outDir := flag.String("out", "", "also write each experiment's report to <out>/<name>.txt")
	svgDir := flag.String("svg", "", "render SVG figures for chartable experiments into this directory")
	parallel := flag.Int("parallel", 1, "run up to N experiments concurrently (results stay in canonical order)")
	timeout := flag.Duration("timeout", 0, "per-experiment timeout, e.g. 90s or 5m (0 = none)")
	flag.Parse()
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var names []string
	if *run != "all" {
		names = strings.Split(*run, ",")
	}

	// ^C cancels cleanly: unstarted experiments are skipped and every
	// running search unwinds at its next generation boundary, so the
	// reports already written to stdout stay intact.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	h := &experiments.Harness{Lab: experiments.NewLab(), Parallel: *parallel}
	start := time.Now()
	outcomes, err := h.RunSuite(ctx, names, *timeout)
	if err != nil {
		// An interrupted run still reports whatever finished; anything
		// else (unknown names, ...) is fatal before any work ran.
		if ctx.Err() == nil || len(outcomes) == 0 {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "interrupted: %v\n", err)
	}

	failed, ran := 0, 0
	for _, o := range outcomes {
		if o.Name == "" {
			continue // skipped after interrupt: never ran
		}
		ran++
		fmt.Fprintf(os.Stderr, "%s: %.1fs\n", o.Name, o.Elapsed.Seconds())
		if o.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", o.Name, o.Err)
			continue
		}
		report := fmt.Sprintf("=== %s ===\n%s\n", o.Name, o.Report)
		fmt.Print(report)
		if *svgDir != "" {
			if err := renderSVGs(*svgDir, o.Name, o.Result); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", o.Name, err)
				os.Exit(1)
			}
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, o.Name+".txt")
			if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", o.Name, err)
				os.Exit(1)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "total: %.1fs (%d experiments, parallel=%d)\n",
		time.Since(start).Seconds(), ran, *parallel)
	if failed > 0 || err != nil {
		os.Exit(1)
	}
}

// chartable results expose a single figure.
type chartable interface{ Chart() *plot.Chart }

// multiChartable results expose several panels.
type multiChartable interface{ Charts() []*plot.Chart }

// renderSVGs writes any figures the result can draw.
func renderSVGs(dir, name string, res fmt.Stringer) error {
	switch r := res.(type) {
	case multiChartable:
		for i, c := range r.Charts() {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.svg", name, i+1))
			if err := plot.Save(path, c); err != nil {
				return err
			}
		}
	case chartable:
		return plot.Save(filepath.Join(dir, name+".svg"), r.Chart())
	}
	return nil
}
