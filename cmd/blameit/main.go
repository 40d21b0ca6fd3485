// Command blameit runs the full BlameIt pipeline on a synthetic world in
// one process: generate topology and routing, inject faults, learn
// expected RTTs, run the periodic localization job with budgeted active
// probing over the live simulator, and print blame summaries, the
// impact-ranked tickets an operator would see, and §6.1's ingestion scan
// cost.
//
// Usage:
//
//	blameit [-scale small|medium|large] [-seed N] [-days N] [-warmup N]
//	        [-workload random|none] [-budget N] [-top N] [-workers N]
//	        [-metrics] [-v]
//
// The same world served over HTTP is blameitd fed by blameit-tracegen;
// the paper's case studies and incident battery are blameit-experiments
// entries (-run cases, -run battery).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"blameit/internal/core"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/sim"
	"blameit/internal/topology"
)

type options struct {
	scaleName   string
	seed        int64
	days        int
	warmup      int
	workload    string
	budget      int
	topN        int
	workers     int
	dumpMetrics bool
	verbose     bool
}

func main() {
	var o options
	flag.StringVar(&o.scaleName, "scale", "small", "world scale: small, medium or large")
	flag.Int64Var(&o.seed, "seed", 42, "deterministic seed for the world, faults and noise")
	flag.IntVar(&o.days, "days", 2, "days to run after warmup")
	flag.IntVar(&o.warmup, "warmup", 1, "warmup days for expected-RTT learning")
	flag.StringVar(&o.workload, "workload", "random", "fault workload: random or none")
	flag.IntVar(&o.budget, "budget", 50, "on-demand traceroutes per cloud location per day (0 = unlimited)")
	flag.IntVar(&o.topN, "top", 5, "tickets to print per job run")
	flag.IntVar(&o.workers, "workers", 0, "goroutines for observation generation and the Algorithm 1 job (0 = all cores, 1 = sequential; output is identical either way)")
	flag.BoolVar(&o.dumpMetrics, "metrics", false, "dump the pipeline metrics snapshot as JSON on exit")
	flag.BoolVar(&o.verbose, "v", false, "print every job run, not only runs with tickets")
	flag.Parse()

	// SIGINT/SIGTERM stop the run between buckets; learned state stays
	// consistent up to the last completed bucket.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "blameit:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	scale, err := topology.ScaleByName(o.scaleName)
	if err != nil {
		return err
	}
	if o.days < 1 || o.warmup < 1 {
		return fmt.Errorf("days and warmup must be positive")
	}
	horizon := netmodel.Bucket((o.warmup + o.days) * netmodel.BucketsPerDay)
	warmupEnd := netmodel.Bucket(o.warmup * netmodel.BucketsPerDay)

	reg := metrics.NewRegistry()
	s, err := sim.Seeded(scale, o.seed, o.workload, horizon, o.workers, reg)
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultConfig()
	cfg.BudgetPerCloudPerDay = o.budget
	cfg.TopNAlerts = o.topN
	cfg.Workers = o.workers
	cfg.Metrics = reg
	if err := cfg.Validate(); err != nil {
		return err
	}

	st := s.World.Stats()
	fmt.Printf("world: %d clouds, %d metros, %d ASes, %d BGP prefixes, %d /24s, %d active clients\n",
		st.Clouds, st.Metros, st.ASes, st.BGPPrefixes, st.Prefix24s, st.Clients)
	fmt.Printf("workload: %s (%d faults), horizon %d days + %d warmup, ingestion: live\n\n",
		o.workload, len(s.Sched.Faults), o.days, o.warmup)

	deps := pipeline.SimDeps(s, cfg.ProbeNoiseMS)
	// §6.1's layout: 8 storage buckets per hour-long ingestion window.
	scan := ingest.NewScanCost(deps.Source, 8, netmodel.BucketsPerHour)
	deps.Source = scan
	p := pipeline.New(deps, cfg)

	fmt.Printf("learning expected RTTs over %d warmup day(s)...\n", o.warmup)
	if err := p.WarmupContext(ctx, 0, warmupEnd); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Println("interrupted during warmup; nothing to report")
			return nil
		}
		return err
	}
	fmt.Printf("learned %d cloud and %d middle-segment medians\n\n",
		p.Thresholds.NumCloudEntries(), p.Thresholds.NumMiddleEntries())

	totals := make(map[core.Blame]int)
	ticketCount := 0
	runErr := p.RunContext(ctx, warmupEnd, horizon, func(rep *pipeline.Report) {
		for _, r := range rep.Results {
			totals[r.Blame]++
		}
		if len(rep.Tickets) == 0 && !o.verbose {
			return
		}
		day := rep.To.Day() - o.warmup
		fmt.Printf("[day %d %02d:%02d] %d verdicts, %d middle issues probed\n",
			day, rep.To.HourOfDay(), (rep.To.OfDay()%netmodel.BucketsPerHour)*netmodel.BucketMinutes,
			len(rep.Results), len(rep.Verdicts))
		for _, t := range rep.Tickets {
			ticketCount++
			fmt.Printf("  ticket #%d -> %s: %s\n", t.ID, t.Team, t.Summary)
		}
	})
	if runErr != nil {
		if !errors.Is(runErr, context.Canceled) {
			return runErr
		}
		fmt.Println("\ninterrupted; summarizing completed buckets")
	}
	incidents := p.Flush()

	fmt.Printf("\n=== summary ===\n")
	total := 0
	for _, n := range totals {
		total += n
	}
	for _, cat := range core.Categories() {
		frac := 0.0
		if total > 0 {
			frac = float64(totals[cat]) / float64(total)
		}
		fmt.Printf("%-13s %8d verdicts (%.1f%%)\n", cat.String(), totals[cat], frac*100)
	}
	cnt := p.Prober.Counters()
	fmt.Printf("\nprobes: %d background, %d churn-triggered, %d on-demand (%d total)\n",
		cnt.Count(probe.Background), cnt.Count(probe.ChurnTriggered), cnt.Count(probe.OnDemand), cnt.Total())
	fmt.Printf("badness incidents tracked: %d; tickets filed: %d\n", incidents, ticketCount)
	fmt.Printf("ingestion store: scanned %d storage buckets / %d records\n",
		scan.ScannedBuckets(), scan.ScannedRecords())
	// Data-plane health, printed only when something actually went wrong so
	// fault-free output is unchanged.
	quar := p.Quarantine()
	retries, dark := p.SourceFaults()
	if quar.Total() > 0 || retries > 0 || dark > 0 {
		fmt.Printf("quarantine: %s; source retries: %d, dark buckets: %d\n", quar, retries, dark)
	}
	if o.dumpMetrics {
		fmt.Println()
		if err := p.Metrics.Snapshot().WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
