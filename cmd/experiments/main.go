// Command experiments runs the paper's evaluation (Exps 1-10, every table
// and figure) on the synthetic dataset analogs and prints the reports.
//
// Usage:
//
//	experiments -exp all            # every experiment at default scale
//	experiments -exp 5 -scale 100   # a single experiment, smaller datasets
//
// -scale divides the paper's dataset sizes; scale 50 (default) turns
// "AIDS40K" into an 800-graph analog. Lower scales are slower but closer
// to the paper's regime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", `experiment number 1-10 or "all"`)
		scale   = flag.Int("scale", 50, "divide the paper's dataset sizes by this factor")
		seed    = flag.Int64("seed", 42, "random seed")
		queries = flag.Int("queries", 0, "workload size per dataset (0 = auto)")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	flag.Parse()
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Queries: *queries}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *exp == "all" {
		start := time.Now()
		for _, rep := range experiments.RunAll(ctx, cfg) {
			fmt.Println(rep)
		}
		fmt.Printf("total: %v\n", time.Since(start).Round(time.Second))
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "experiments: aborted after -timeout %v\n", *timeout)
			os.Exit(1)
		}
		return
	}
	n, err := strconv.Atoi(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: bad -exp %q\n", *exp)
		os.Exit(2)
	}
	rep, err := experiments.Run(ctx, n, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
}
