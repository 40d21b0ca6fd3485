// Command blameitd runs BlameIt as a long-lived HTTP service: an ingestion
// frontend accepting JSONL observation batches, a backend worker stepping
// the Algorithm 1 localization job as buckets seal, and read APIs for
// verdicts, reports, health, and metrics. It is the service-shaped
// counterpart of the batch `blameit` CLI: the same pipeline, fed over HTTP
// instead of from a live simulator, producing byte-identical reports for
// the same telemetry.
//
// Usage:
//
//	blameitd [-addr :7031] [-scale small|medium|large] [-seed N]
//	         [-workload random|none] [-warmup N] [-days N] [-budget N]
//	         [-top N] [-workers N] [-manual-seal] [-max-batch-mb N]
//	         [-max-pending N] [-retain-reports N]
//	         [-data-dir DIR] [-fsync always|interval|off]
//	         [-fsync-interval-ms N] [-wal-segment-mb N] [-compact-every N]
//	         [-pprof-addr ADDR]
//
// With -data-dir the daemon is crash-safe: ingested buckets and published
// reports are journaled to a write-ahead log under DIR, and a restart
// (kill -9 included) replays the journal before serving — /v1/reports
// comes back byte-identical to an uninterrupted run. The WAL carries a
// fingerprint of the world and pipeline flags; restarting over the same
// DIR with different flags refuses to start rather than diverge.
//
// The world flags (-scale, -seed, -workload, -days) must match the trace
// producer's: the daemon regenerates topology and routing from the seeds
// through sim.Seeded, as blameit-tracegen does (configuration, not
// telemetry), and serves active-phase probes from the deterministic engine
// over that world. Feed it with the tracegen loadgen, both sides on one
// -days so they regenerate one fault and routing history:
//
//	blameitd -addr :7031 -days 2 &
//	blameit-tracegen -days 2 -post http://localhost:7031
//
// -pprof-addr serves net/http/pprof (/debug/pprof/...) on a listener of
// its own, so a live daemon can be profiled without patching it:
//
//	blameitd -pprof-addr 127.0.0.1:6060 &
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
//
// It is off by default, and the public address never serves /debug/.
//
// SIGTERM/SIGINT drain gracefully: ingestion stops with 503, every queued
// bucket is stepped, the in-flight window is flushed as a final report,
// and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/server"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/wal"
)

type options struct {
	addr          string
	scaleName     string
	seed          int64
	workload      string
	warmup        int
	days          int
	budget        int
	topN          int
	workers       int
	manualSeal    bool
	maxBatchMB    int
	maxPending    int
	retainReports int

	dataDir         string
	fsyncPolicy     string
	fsyncIntervalMS int
	walSegmentMB    int
	compactEvery    int

	pprofAddr string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7031", "HTTP listen address")
	flag.StringVar(&o.scaleName, "scale", "small", "world scale: small, medium or large")
	flag.Int64Var(&o.seed, "seed", 42, "deterministic seed for the world, faults and probe noise (must match the trace producer)")
	flag.StringVar(&o.workload, "workload", "random", "fault workload behind the probe engine: random or none (must match the trace producer)")
	flag.IntVar(&o.warmup, "warmup", 1, "warmup days of ingested telemetry used for expected-RTT learning before localization starts")
	flag.IntVar(&o.days, "days", 30, "horizon in days for fault and routing generation (bounds how far the probe engine can serve; must match the trace producer)")
	flag.IntVar(&o.budget, "budget", 50, "on-demand traceroutes per cloud location per day (0 = unlimited)")
	flag.IntVar(&o.topN, "top", 10, "tickets per job run (0 = unlimited)")
	flag.IntVar(&o.workers, "workers", 0, "goroutines for the Algorithm 1 job (0 = all cores)")
	flag.BoolVar(&o.manualSeal, "manual-seal", false, "seal buckets only via POST /v1/seal, never implicitly by later-bucket arrivals")
	flag.IntVar(&o.maxBatchMB, "max-batch-mb", 32, "largest accepted ingest body in MiB (413 beyond)")
	flag.IntVar(&o.maxPending, "max-pending", server.DefaultMaxPendingRecords, "ingest queue depth in records (429 beyond)")
	flag.IntVar(&o.retainReports, "retain-reports", server.DefaultMaxReports, "reports kept for the read APIs (oldest evicted)")
	flag.StringVar(&o.dataDir, "data-dir", "", "write-ahead log directory; empty runs in-memory only (no crash recovery)")
	flag.StringVar(&o.fsyncPolicy, "fsync", "interval", "WAL fsync policy: always (power-loss safe), interval, or off")
	flag.IntVar(&o.fsyncIntervalMS, "fsync-interval-ms", 100, "flush cadence in ms under -fsync interval")
	flag.IntVar(&o.walSegmentMB, "wal-segment-mb", 64, "WAL segment rotation size in MiB")
	flag.IntVar(&o.compactEvery, "compact-every", 0, "compact the WAL after every N journaled reports (0 = default, negative = never)")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "blameitd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	scale, err := topology.ScaleByName(o.scaleName)
	if err != nil {
		return err
	}
	if o.warmup < 0 || o.days < 1 {
		return fmt.Errorf("warmup must be >= 0 and days >= 1")
	}
	horizon := netmodel.Bucket(o.days * netmodel.BucketsPerDay)
	s, err := sim.Seeded(scale, o.seed, o.workload, horizon, o.workers, nil)
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	pcfg := pipeline.DefaultConfig()
	pcfg.BudgetPerCloudPerDay = o.budget
	pcfg.TopNAlerts = o.topN
	pcfg.Workers = o.workers
	pcfg.Metrics = reg
	cfg := server.Config{
		Pipeline:          pcfg,
		WarmupBuckets:     netmodel.Bucket(o.warmup * netmodel.BucketsPerDay),
		MaxBatchBytes:     int64(o.maxBatchMB) << 20,
		MaxPendingRecords: o.maxPending,
		MaxReports:        o.retainReports,
		ManualSeal:        o.manualSeal,
	}
	if o.dataDir != "" {
		policy, err := wal.ParsePolicy(o.fsyncPolicy)
		if err != nil {
			return err
		}
		cfg.DataDir = o.dataDir
		cfg.CompactEveryReports = o.compactEvery
		cfg.WAL = wal.Config{
			Fsync:         policy,
			FsyncInterval: time.Duration(o.fsyncIntervalMS) * time.Millisecond,
			SegmentBytes:  int64(o.walSegmentMB) << 20,
			// The fingerprint pins every flag replay determinism depends
			// on; a mismatched restart refuses to reuse the directory.
			Meta: fmt.Sprintf("scale=%s seed=%d workload=%s warmup=%d days=%d budget=%d top=%d manual=%v",
				o.scaleName, o.seed, o.workload, o.warmup, o.days, o.budget, o.topN, o.manualSeal),
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// The daemon's pipeline reads observations from the HTTP ingest queue;
	// only active-phase probes come from the deterministic engine over the
	// regenerated world.
	srv, err := server.New(pipeline.Deps{
		World:  s.World,
		Table:  s.Routes,
		Prober: probe.NewEngine(s, pcfg.ProbeNoiseMS),
	}, cfg)
	if err != nil {
		return err
	}

	st := s.World.Stats()
	fmt.Printf("world: %d clouds, %d metros, %d ASes, %d BGP prefixes, %d /24s, %d active clients\n",
		st.Clouds, st.Metros, st.ASes, st.BGPPrefixes, st.Prefix24s, st.Clients)
	if o.dataDir != "" {
		wh := srv.WALHealth()
		fmt.Printf("wal: %s (fsync %s); recovered %d buckets, %d reports, %d journaled batches; %d corrupt bytes truncated\n",
			o.dataDir, o.fsyncPolicy, wh.RecoveredBuckets, wh.RecoveredReports, wh.RecoveredBatches, wh.TruncatedBytes)
	}
	// Bind explicitly so -addr :0 works (the harness scripts grab the
	// printed port) and a taken port fails before the daemon claims to be
	// up.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	if o.pprofAddr != "" {
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			ln.Close()
			srv.Shutdown(context.Background())
			return err
		}
		pprofSrv := &http.Server{Handler: pprofMux()}
		go pprofSrv.Serve(pln)
		defer pprofSrv.Close()
		fmt.Printf("blameitd pprof on %s\n", pln.Addr())
	}
	fmt.Printf("blameitd listening on %s (warmup %d buckets, job every %d buckets, workload %s over %d days)\n",
		ln.Addr(), cfg.WarmupBuckets, pcfg.RunEvery, o.workload, o.days)

	httpSrv := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-httpErr:
		srv.Shutdown(context.Background())
		return err
	case <-sigCtx.Done():
	}
	fmt.Println("blameitd: signal received; draining")

	// Stop accepting connections first, then drain the backend: every
	// bucket already queued is stepped and the in-flight window is flushed
	// as a final report before the process exits.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		httpSrv.Close()
	}
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelDrain()
	err = srv.Shutdown(drainCtx)

	p := srv.Pipeline()
	quar := p.Quarantine()
	fmt.Printf("blameitd: drained; %d reports published, %d records quarantined (%s)\n",
		srv.Reports(), quar.Total(), quar)
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// pprofMux routes the net/http/pprof handlers, which the package would
// otherwise register on http.DefaultServeMux.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
