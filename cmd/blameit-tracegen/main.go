// Command blameit-tracegen generates a synthetic client-cloud RTT trace —
// the passive TCP-handshake telemetry stream of the paper — as JSON Lines
// on stdout or into a file. The trace can be replayed through the quartet
// classifier and Algorithm 1, or inspected with standard tooling.
//
// Usage:
//
//	blameit-tracegen [-scale small|medium|large] [-seed N] [-days N]
//	                 [-workload random|none] [-workers N] [-metrics]
//	                 [-o FILE] [-post URL] [-batch N] [-seal=true] [-fleet N]
//
// By default each line is one aggregated quartet observation.
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
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

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

// put appends one part of the feed (a bucket's observations, or one
// agent's partial for a bucket) through write, then flushes if the batch
// is complete. A part lands whole in one body — the aggregate endpoint's
// contract for a partial — because flushes only happen between parts.
func (p *poster) put(n int, write func(io.Writer) error) error {
	if err := write(&p.buf); err != nil {
		return err
	}
	p.n += n
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
		days        = flag.Int("days", 1, "days of trace to generate; also the horizon of fault and routing generation (a blameitd fed this trace must run with the same -days)")
		workload    = flag.String("workload", "random", "fault workload: random or none")
		workers     = flag.Int("workers", 0, "goroutines for observation generation (0 = all cores, 1 = sequential; output is identical either way)")
		dumpMetrics = flag.Bool("metrics", false, "dump the generation metrics snapshot as JSON on stderr at exit")
		outFile     = flag.String("o", "", "output file (default stdout)")
		postURL     = flag.String("post", "", "replay the trace over HTTP into a blameitd at this base URL instead of writing it")
		batchSize   = flag.Int("batch", 5000, "records per POST batch in -post mode")
		sealFinal   = flag.Bool("seal", true, "in -post mode, seal the final bucket after the replay so the daemon localizes it")
		fleetN      = flag.Int("fleet", 0, "pre-aggregate at the edge with N fleet agents and emit aggregate cells instead of raw observations")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	// SIGINT/SIGTERM stop generation at the next bucket boundary, leaving a
	// valid (truncated) bucket-ordered trace behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale, err := topology.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	reg := metrics.NewRegistry()
	horizon := netmodel.Bucket(*days * netmodel.BucketsPerDay)
	s, err := sim.Seeded(scale, *seed, *workload, horizon, *workers, reg)
	if err != nil {
		fatal(err)
	}

	var out io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		out = bw
	}

	unit, path := "records", "/v1/ingest"
	if *fleetN > 0 {
		unit, path = "cells", "/v1/aggregates"
	}
	var p *poster
	if *postURL != "" {
		p = newPoster(ctx, *postURL, path, *batchSize)
	}
	var written int64
	// put hands one part of the feed to the poster or the output.
	put := func(n int, write func(io.Writer) error) error {
		written += int64(n)
		if p != nil {
			return p.put(n, write)
		}
		return write(out)
	}
	// emit writes bucket b's records through put, one part at a time: the
	// bucket's observations, or each agent's partial.
	var emit func(b netmodel.Bucket) error
	if *fleetN > 0 {
		fl := fleet.New(s, *fleetN)
		var cells []ingest.AggCell
		writeCells := func(w io.Writer) error { return ingest.WriteAggJSONL(w, cells) }
		emit = func(b netmodel.Bucket) error {
			for _, ag := range fl.Agents {
				cells = ingest.AggCellsOf(ag.Collect(b), cells[:0])
				if err := put(len(cells), writeCells); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		var obs []trace.Observation
		writeObs := func(w io.Writer) error { return trace.WriteJSONL(w, obs) }
		emit = func(b netmodel.Bucket) error {
			obs = s.ObservationsAt(b, obs[:0])
			return put(len(obs), writeObs)
		}
	}

	start := time.Now()
	for b := netmodel.Bucket(0); b < horizon && ctx.Err() == nil; b++ {
		if err := emit(b); err != nil {
			fatal(err)
		}
	}
	if p != nil {
		err := p.flush()
		if err == nil && *sealFinal && ctx.Err() == nil {
			err = p.seal(horizon - 1)
		}
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		rate := float64(p.posted)
		if elapsed > 0 {
			rate /= elapsed
		}
		fmt.Fprintf(os.Stderr, "tracegen: replayed %d %s over HTTP in %d batches (%.0f %s/sec, %d backpressure retries)\n",
			p.posted, unit, p.batches, rate, unit, p.retries)
		p.summary(unit)
	}
	kind := "quartet"
	if *fleetN > 0 {
		kind = fmt.Sprintf("aggregate-cell (%d-agent fleet)", *fleetN)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d %s records over %d day(s), %d faults\n", written, kind, *days, len(s.Sched.Faults))
	if *dumpMetrics {
		// Metrics go to stderr so the trace stream on stdout stays clean.
		if err := reg.Snapshot().WriteJSON(os.Stderr); err != nil {
			fatal(err)
		}
	}
}
