// Command blameit runs the full BlameIt pipeline on a synthetic world:
// generate topology and routing, inject faults, learn expected RTTs, run
// the periodic localization job with budgeted active probing, and print
// blame summaries and the impact-ranked tickets an operator would see.
//
// Usage:
//
//	blameit [-scale small|medium|large] [-seed N] [-days N] [-warmup N]
//	        [-workload random|cases|battery|none] [-budget N] [-top N]
//	        [-workers N] [-replay FILE] [-metrics] [-v]
//
// With -replay, passive observations are read from a recorded JSONL trace
// (blameit-tracegen output; "-" reads stdin) instead of being generated
// live. A replay with the same -scale/-seed/-workload as the recording —
// and a tracegen horizon covering warmup+days days — reproduces the live
// run's reports byte for byte:
//
//	blameit-tracegen -seed 42 -days 2 | blameit -replay - -seed 42 -days 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"blameit/internal/bgp"
	"blameit/internal/chaos"
	"blameit/internal/core"
	"blameit/internal/faults"
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
	replayPath  string
	chaosName   string
	dumpMetrics bool
	verbose     bool
}

func main() {
	var o options
	flag.StringVar(&o.scaleName, "scale", "small", "world scale: small, medium or large")
	flag.Int64Var(&o.seed, "seed", 42, "deterministic seed for the world, faults and noise")
	flag.IntVar(&o.days, "days", 2, "days to run after warmup")
	flag.IntVar(&o.warmup, "warmup", 1, "warmup days for expected-RTT learning")
	flag.StringVar(&o.workload, "workload", "random", "fault workload: random, cases, battery or none")
	flag.IntVar(&o.budget, "budget", 50, "on-demand traceroutes per cloud location per day (0 = unlimited)")
	flag.IntVar(&o.topN, "top", 5, "tickets to print per job run")
	flag.IntVar(&o.workers, "workers", 0, "goroutines for observation generation and the Algorithm 1 job (0 = all cores, 1 = sequential; output is identical either way)")
	flag.StringVar(&o.replayPath, "replay", "", "replay passive observations from a recorded JSONL trace instead of generating them (\"-\" = stdin)")
	flag.StringVar(&o.chaosName, "chaos", "off", "inject data-plane faults: off, light or heavy (deterministic per seed)")
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
	w := topology.Generate(scale, o.seed)
	horizon := netmodel.Bucket((o.warmup + o.days) * netmodel.BucketsPerDay)
	warmupEnd := netmodel.Bucket(o.warmup * netmodel.BucketsPerDay)

	var fs []faults.Fault
	switch o.workload {
	case "random":
		fs = faults.Generate(w, faults.DefaultGenerateConfig(), horizon, o.seed+1).Faults
	case "cases":
		for _, sc := range faults.CaseStudies(w, o.seed+1) {
			f := sc.Fault
			f.Start += warmupEnd
			fs = append(fs, f)
			fmt.Printf("scenario %-28s %s\n", sc.Name+":", sc.Desc)
		}
	case "battery":
		for _, sc := range faults.IncidentBattery(w, 88, warmupEnd+2*netmodel.BucketsPerHour, 6, o.seed+1) {
			fs = append(fs, sc.Fault)
		}
	case "none":
	default:
		return fmt.Errorf("unknown workload %q (random|cases|battery|none)", o.workload)
	}

	ccfg, err := chaos.Profile(o.chaosName, o.seed+4)
	if err != nil {
		return err
	}

	st := w.Stats()
	fmt.Printf("world: %d clouds, %d metros, %d ASes, %d BGP prefixes, %d /24s, %d active clients\n",
		st.Clouds, st.Metros, st.ASes, st.BGPPrefixes, st.Prefix24s, st.Clients)
	mode := "live"
	if o.replayPath != "" {
		mode = "replay of " + o.replayPath
	}
	if ccfg.Enabled() {
		mode += ", chaos " + o.chaosName
	}
	fmt.Printf("workload: %s (%d faults), horizon %d days + %d warmup, ingestion: %s\n\n",
		o.workload, len(fs), o.days, o.warmup, mode)

	reg := metrics.NewRegistry()
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, o.seed+2)
	scfg := sim.DefaultConfig(o.seed + 3)
	scfg.Workers = o.workers
	scfg.Metrics = reg
	if err := scfg.Validate(); err != nil {
		return err
	}
	s := sim.New(w, tbl, faults.NewSchedule(fs), scfg)
	cfg := pipeline.DefaultConfig()
	cfg.BudgetPerCloudPerDay = o.budget
	cfg.TopNAlerts = o.topN
	cfg.Workers = o.workers
	cfg.Metrics = reg
	if err := cfg.Validate(); err != nil {
		return err
	}

	// The observation source is the only thing replay changes: probes still
	// come from the deterministic engine over the same world, which is why
	// a matching trace reproduces the live reports byte for byte.
	deps := pipeline.SimDeps(s, cfg.ProbeNoiseMS)
	var stream *ingest.StreamSource
	var scan *ingest.ScanCost
	if o.replayPath == "" {
		// §6.1's layout: 8 storage buckets per hour-long ingestion window.
		scan = ingest.NewScanCost(deps.Source, 8, netmodel.BucketsPerHour)
		deps.Source = scan
	} else {
		var in io.Reader = os.Stdin
		if o.replayPath != "-" {
			f, err := os.Open(o.replayPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		stream = ingest.NewStreamSource(in)
		deps.Source = stream
	}
	// Chaos wraps whatever source/prober the run ended up with — live or
	// replay — so the hardened consuming side (quarantine, retrying
	// prober, degraded verdicts) is exercised identically in both modes.
	var csrc *chaos.Source
	var cprb *chaos.Prober
	if ccfg.Enabled() {
		csrc = chaos.NewSource(deps.Source, ccfg, netmodel.PrefixID(len(w.Prefixes)))
		cprb = chaos.NewProber(deps.Prober, ccfg)
		deps.Source = csrc
		deps.Prober = cprb
	}
	p := pipeline.New(deps, cfg)
	if stream != nil {
		// Replay salvage mode: malformed or out-of-order records land in
		// the quarantine (reported, and fatal at exit) instead of aborting
		// the run mid-bucket.
		stream.SetQuarantine(p.Quarantine())
	}

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
	fmt.Printf("badness incidents tracked: %d; tickets filed: %d\n", len(incidents), ticketCount)
	if scan != nil {
		fmt.Printf("ingestion store: scanned %d storage buckets / %d records\n",
			scan.ScannedBuckets(), scan.ScannedRecords())
	}
	if stream != nil {
		fmt.Printf("trace replay: consumed %d records\n", stream.Records())
	}
	// Data-plane health, printed only when something actually went wrong so
	// fault-free output is unchanged.
	quar := p.Quarantine()
	retries, dark := p.SourceFaults()
	if quar.Total() > 0 || retries > 0 || dark > 0 {
		fmt.Printf("quarantine: %s; source retries: %d, dark buckets: %d\n", quar, retries, dark)
	}
	if rp, ok := p.Prober.(*probe.RetryingProber); ok {
		if st := rp.Stats(); st.Failures > 0 {
			fmt.Printf("probe retries: %d failures, %d retried, %d exhausted; breaker: %d opens, %d short-circuits\n",
				st.Failures, st.Retries, st.Exhausted, st.BreakerOpens, st.BreakerShortCircuits)
		}
	}
	if csrc != nil {
		cs, ps := csrc.Stats(), cprb.Stats()
		fmt.Printf("chaos injected: %d corrupt, %d late (%d pending), %d duplicates, %d dropped batches, %d transient read errors, %d probe failures, %d truncated probes\n",
			cs.Corrupted, cs.LateDelivered, csrc.PendingLate(), cs.Duplicated, cs.DroppedBatches, cs.TransientErrs, ps.FailuresInjected, ps.Truncated)
	}
	if o.dumpMetrics {
		fmt.Println()
		if err := p.Metrics.Snapshot().WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	// A completed replay vouches for its input: a trace that ran out early
	// or shed records into the quarantine is a defective recording, and the
	// run must not exit zero as if the reports were trustworthy.
	if stream != nil && runErr == nil {
		qt := quar.Total()
		truncated := stream.Exhausted() && stream.LastBucket() < horizon-1
		switch {
		case truncated && qt > 0:
			return fmt.Errorf("replay: trace truncated (last record at bucket %d, run needed %d) and %d records quarantined (%s)",
				stream.LastBucket(), horizon-1, qt, quar)
		case truncated:
			return fmt.Errorf("replay: trace truncated — last record at bucket %d, run needed %d", stream.LastBucket(), horizon-1)
		case qt > 0:
			return fmt.Errorf("replay: %d records quarantined (%s)", qt, quar)
		}
	}
	return nil
}
