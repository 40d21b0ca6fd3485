// Command blameit-experiments regenerates every table and figure of the
// paper's evaluation from the synthetic substrate and prints them as text.
//
// Usage:
//
//	blameit-experiments [-scale small|medium|large] [-seed N] [-run all|<ids>]
//	                    [-workers N] [-metrics] [-time]
//
// where <ids> is a comma-separated subset of the ids in the experiment
// registry (internal/experiments; an unknown id lists them). Every
// experiment has one size, the one EXPERIMENTS.json records; -scale medium
// is the way to run bigger.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"blameit/internal/experiments"
	"blameit/internal/metrics"
	"blameit/internal/topology"
)

func main() {
	var (
		scaleName   = flag.String("scale", "small", "world scale: small, medium or large")
		seed        = flag.Int64("seed", 42, "deterministic seed")
		runList     = flag.String("run", "all", "comma-separated experiment ids or 'all'")
		timing      = flag.Bool("time", false, "print per-experiment wall time")
		workers     = flag.Int("workers", 0, "cap cores used by the runtime and the default worker pools (0 = all cores; results are identical at any setting)")
		dumpMetrics = flag.Bool("metrics", false, "dump the cumulative metrics snapshot of all runs as JSON on exit")
	)
	flag.Parse()

	// Experiment runners construct their environments internally, so the
	// metrics opt-in goes through the process-default registry: every
	// simulator and pipeline built after this call reports into it.
	if *dumpMetrics {
		metrics.EnableDefault()
	}

	// Every Workers knob in the system defaults to runtime.GOMAXPROCS(0),
	// so capping GOMAXPROCS bounds the fan-out of every environment the
	// experiment runners construct — including the ones built internally
	// by workload helpers. Determinism makes this purely a speed knob.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	scale, err := topology.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blameit-experiments:", err)
		os.Exit(1)
	}

	selected, err := experiments.Select(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blameit-experiments:", err)
		os.Exit(2)
	}
	params := experiments.Params{Scale: scale, Seed: *seed}
	for _, e := range selected {
		startT := time.Now()
		fmt.Print(e.Run(params).Text)
		if *timing {
			fmt.Printf("  [%s took %.1fs]\n\n", e.ID, time.Since(startT).Seconds())
		}
	}
	if *dumpMetrics {
		fmt.Println()
		if err := metrics.Default().Snapshot().WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "blameit-experiments:", err)
			os.Exit(1)
		}
	}
}
