// Command blameit-tracegen generates a synthetic client-cloud RTT trace —
// the passive TCP-handshake telemetry stream of the paper — as JSON Lines
// on stdout or into a file. The trace can be replayed through the quartet
// classifier and Algorithm 1, or inspected with standard tooling.
//
// Usage:
//
//	blameit-tracegen [-scale small|medium|large] [-seed N] [-days N]
//	                 [-faults random|none] [-level quartet|sample]
//	                 [-providers N] [-provider K]
//	                 [-workers N] [-metrics] [-o FILE]
//	                 [-post URL] [-batch N] [-seal=true] [-fleet N]
//
// With -providers N > 1 the world hosts N cloud providers over one shared
// internet and the trace is provider -provider K's own observation stream
// (its served prefixes steered to its anycast edges) — quartet level only.
//
// At -level quartet (default) each line is one aggregated quartet
// observation; at -level sample each line is one raw handshake record with
// a client IP, as the cloud servers log them.
//
// With -post the tracegen becomes a load generator: instead of writing the
// trace, it replays it over HTTP into a running blameitd, POSTing JSONL
// batches of -batch records to URL/v1/ingest (backing off on 429) and
// sealing the final bucket when generation ends so the daemon's backend
// localizes everything:
//
//	blameit-tracegen -scale medium -days 2 -post http://localhost:7031
//
// -fleet N switches the feed to an edge-aggregating agent fleet: the
// prefix space splits across N agents, each pre-aggregates its slice of
// every bucket into a quartet partial, and the records become aggregate
// cells (POSTed to URL/v1/aggregates in -post mode, written as AggCell
// JSONL otherwise). The daemon serves each bucket's partials to the
// pipeline in canonical (agent, epoch, seq) order, so the reports are
// byte-identical to the raw feed's:
//
//	blameit-tracegen -scale medium -days 2 -fleet 8 -post http://localhost:7031
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/fleet"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// poster replays the generated trace over HTTP: records accumulate into
// JSONL bodies of batchRecords each and are POSTed to a blameitd ingest
// endpoint. 429 (queue backpressure) retries with capped exponential
// backoff — the daemon's backend is the rate limiter; any other non-2xx
// status is fatal.
type poster struct {
	ctx          context.Context
	base         string
	path         string
	client       *http.Client
	buf          bytes.Buffer
	n            int
	batchRecords int

	posted      int64
	batches     int64
	retries     int64
	resent      int64 // records re-POSTed after a 429
	serverWaits int64 // 429s whose Retry-After directed the wait
	waited      time.Duration
}

// newPoster builds a load generator against one ingestion path —
// "/v1/ingest" for raw observations, "/v1/aggregates" for fleet cells.
func newPoster(ctx context.Context, base, path string, batchRecords int) *poster {
	return &poster{
		ctx:          ctx,
		base:         base,
		path:         path,
		client:       &http.Client{Timeout: 60 * time.Second},
		batchRecords: batchRecords,
	}
}

// add appends one bucket's records, flushing complete batches.
func (p *poster) add(obs []trace.Observation) error {
	if err := trace.WriteJSONL(&p.buf, obs); err != nil {
		return err
	}
	p.n += len(obs)
	if p.n >= p.batchRecords {
		return p.flush()
	}
	return nil
}

// addAgg appends one partial's aggregate cells. The whole partial lands
// in one body — the aggregate endpoint's contract — because flushes only
// happen between add calls.
func (p *poster) addAgg(cells []ingest.AggCell) error {
	if err := ingest.WriteAggJSONL(&p.buf, cells); err != nil {
		return err
	}
	p.n += len(cells)
	if p.n >= p.batchRecords {
		return p.flush()
	}
	return nil
}

// flush POSTs the pending batch, retrying backpressure until ctx dies.
func (p *poster) flush() error {
	if p.n == 0 {
		return nil
	}
	body := p.buf.Bytes()
	backoff := 50 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(p.ctx, http.MethodPost, p.base+p.path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := p.client.Do(req)
		if err != nil {
			return fmt.Errorf("posting batch: %w", err)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			p.retries++
			p.resent += int64(p.n)
			wait := backoff
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				// Honor the server's hint exactly: it derives the wait
				// from its own queue occupancy, which beats any
				// client-side guess — no doubling, no cap on top.
				wait = time.Duration(ra) * time.Second
				p.serverWaits++
				backoff = 50 * time.Millisecond
			} else if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			p.waited += wait
			select {
			case <-p.ctx.Done():
				return p.ctx.Err()
			case <-time.After(wait):
			}
			continue
		case resp.StatusCode/100 != 2:
			return fmt.Errorf("ingest endpoint answered %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		p.posted += int64(p.n)
		p.batches++
		p.buf.Reset()
		p.n = 0
		return nil
	}
}

// summary prints the resend accounting: how much of the feed had to be
// re-POSTed under backpressure and who decided the waits.
func (p *poster) summary(unit string) {
	fmt.Fprintf(os.Stderr, "tracegen: resend accounting: %d retried POSTs re-sent %d %s; %d/%d waits server-directed via Retry-After; %.1fs total backpressure wait\n",
		p.retries, p.resent, unit, p.serverWaits, p.retries, p.waited.Seconds())
}

// seal flushes the tail batch and seals the trace's final bucket so the
// daemon steps it without waiting for a later record that never comes.
func (p *poster) seal(through netmodel.Bucket) error {
	if err := p.flush(); err != nil {
		return err
	}
	body := fmt.Sprintf(`{"through":%d}`, through)
	req, err := http.NewRequestWithContext(p.ctx, http.MethodPost, p.base+"/v1/seal", bytes.NewReader([]byte(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("sealing through bucket %d: %w", through, err)
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("seal endpoint answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

func main() {
	var (
		scaleName   = flag.String("scale", "small", "world scale: small, medium or large")
		seed        = flag.Int64("seed", 42, "deterministic seed")
		days        = flag.Int("days", 1, "days of trace to generate")
		workload    = flag.String("faults", "random", "fault workload: random or none")
		providers   = flag.Int("providers", 1, "cloud providers in the generated world (shared internet, per-provider anycast edges)")
		provider    = flag.Int("provider", 0, "which provider's observation stream to emit when -providers > 1")
		level       = flag.String("level", "quartet", "record granularity: quartet or sample")
		workers     = flag.Int("workers", 0, "goroutines for observation/sample generation (0 = all cores, 1 = sequential; output is identical either way)")
		dumpMetrics = flag.Bool("metrics", false, "dump the generation metrics snapshot as JSON on stderr at exit")
		outFile     = flag.String("o", "", "output file (default stdout)")
		postURL     = flag.String("post", "", "replay the trace over HTTP into a blameitd at this base URL instead of writing it (quartet level only)")
		batchSize   = flag.Int("batch", 5000, "records per POST batch in -post mode")
		sealFinal   = flag.Bool("seal", true, "in -post mode, seal the final bucket after the replay so the daemon localizes it")
		fleetN      = flag.Int("fleet", 0, "pre-aggregate at the edge with N fleet agents and emit aggregate cells instead of raw observations (quartet level only)")
	)
	flag.Parse()

	// SIGINT/SIGTERM stop generation at the next bucket boundary, leaving a
	// valid (truncated) bucket-ordered trace behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale, err := topology.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	if *workload != "random" && *workload != "none" {
		fmt.Fprintf(os.Stderr, "tracegen: unknown -faults %q (random|none)\n", *workload)
		os.Exit(1)
	}

	scale.Providers = *providers
	if err := scale.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	if *provider < 0 || *provider >= *providers {
		fmt.Fprintf(os.Stderr, "tracegen: -provider %d outside the world's %d providers\n", *provider, *providers)
		os.Exit(1)
	}
	if *providers > 1 && *level != "quartet" {
		fmt.Fprintln(os.Stderr, "tracegen: -providers > 1 supports only -level quartet (samples carry no provider scope)")
		os.Exit(1)
	}
	if *providers > 1 && *fleetN > 0 {
		fmt.Fprintln(os.Stderr, "tracegen: -fleet agents aggregate a single provider's edge; use -providers 1")
		os.Exit(1)
	}

	var out io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		out = bw
	}

	w := topology.Generate(scale, *seed)
	horizon := netmodel.Bucket(*days * netmodel.BucketsPerDay)
	var fs []faults.Fault
	if *workload == "random" {
		fs = faults.Generate(w, faults.DefaultGenerateConfig(), horizon, *seed+1).Faults
	}
	reg := metrics.NewRegistry()
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, *seed+2)
	scfg := sim.DefaultConfig(*seed + 3)
	scfg.Workers = *workers
	scfg.Metrics = reg
	if err := scfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	s := sim.New(w, tbl, faults.NewSchedule(fs), scfg)

	if *postURL != "" && *level != "quartet" {
		fmt.Fprintln(os.Stderr, "tracegen: -post supports only -level quartet (the daemon ingests quartet observations)")
		os.Exit(1)
	}
	if *fleetN > 0 && *level != "quartet" {
		fmt.Fprintln(os.Stderr, "tracegen: -fleet supports only -level quartet (agents pre-aggregate quartet observations)")
		os.Exit(1)
	}

	var written int64
	switch {
	case *level == "quartet" && *fleetN > 0:
		fl := fleet.New(s, *fleetN)
		sink := func(cells []ingest.AggCell) error { return ingest.WriteAggJSONL(out, cells) }
		var p *poster
		if *postURL != "" {
			p = newPoster(ctx, *postURL, "/v1/aggregates", *batchSize)
			sink = p.addAgg
		}
		start := time.Now()
		var cells []ingest.AggCell
		for b := netmodel.Bucket(0); b < horizon && ctx.Err() == nil; b++ {
			for _, ag := range fl.Agents {
				cells = ingest.AggCellsOf(ag.Collect(b), cells[:0])
				if err := sink(cells); err != nil {
					fmt.Fprintln(os.Stderr, "tracegen:", err)
					os.Exit(1)
				}
				written += int64(len(cells))
			}
		}
		if p != nil {
			err := p.flush()
			if err == nil && *sealFinal && ctx.Err() == nil {
				err = p.seal(horizon - 1)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "tracegen:", err)
				os.Exit(1)
			}
			elapsed := time.Since(start).Seconds()
			rate := float64(p.posted)
			if elapsed > 0 {
				rate /= elapsed
			}
			fmt.Fprintf(os.Stderr, "tracegen: replayed %d aggregate cells from %d agents over HTTP in %d batches (%.0f cells/sec, %d backpressure retries)\n",
				p.posted, len(fl.Agents), p.batches, rate, p.retries)
			p.summary("cells")
		}
	case *level == "quartet":
		sink := func(obs []trace.Observation) error { return trace.WriteJSONL(out, obs) }
		var p *poster
		if *postURL != "" {
			p = newPoster(ctx, *postURL, "/v1/ingest", *batchSize)
			sink = p.add
		}
		start := time.Now()
		var buf []trace.Observation
		for b := netmodel.Bucket(0); b < horizon && ctx.Err() == nil; b++ {
			if *providers > 1 {
				buf = s.ObservationsForProvider(netmodel.ProviderID(*provider), b, buf[:0])
			} else {
				buf = s.ObservationsAt(b, buf[:0])
			}
			if err := sink(buf); err != nil {
				fmt.Fprintln(os.Stderr, "tracegen:", err)
				os.Exit(1)
			}
			written += int64(len(buf))
		}
		if p != nil {
			err := p.flush()
			if err == nil && *sealFinal && ctx.Err() == nil {
				err = p.seal(horizon - 1)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "tracegen:", err)
				os.Exit(1)
			}
			elapsed := time.Since(start).Seconds()
			rate := float64(p.posted)
			if elapsed > 0 {
				rate /= elapsed
			}
			fmt.Fprintf(os.Stderr, "tracegen: replayed %d records over HTTP in %d batches (%.0f records/sec, %d backpressure retries)\n",
				p.posted, p.batches, rate, p.retries)
			p.summary("records")
		}
	case *level == "sample":
		enc := json.NewEncoder(out)
		var buf []trace.Sample
		for b := netmodel.Bucket(0); b < horizon && ctx.Err() == nil; b++ {
			buf = s.SamplesAt(b, buf[:0])
			for i := range buf {
				if err := enc.Encode(&buf[i]); err != nil {
					fmt.Fprintln(os.Stderr, "tracegen:", err)
					os.Exit(1)
				}
			}
			written += int64(len(buf))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown level %q (quartet|sample)\n", *level)
		os.Exit(1)
	}
	kind := *level
	if *fleetN > 0 {
		kind = fmt.Sprintf("aggregate-cell (%d-agent fleet)", *fleetN)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d %s records over %d day(s), %d faults\n", written, kind, *days, len(fs))
	if *dumpMetrics {
		// Metrics go to stderr so the trace stream on stdout stays clean.
		if err := reg.Snapshot().WriteJSON(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
	}
}
