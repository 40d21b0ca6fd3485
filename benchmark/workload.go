//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"blameit/internal/pipeline"
)

// workload is one traffic shape. Every workload replays the same world;
// they differ in the feed, in durability, in pacing, and in how many days
// one pass replays (chosen so that a pass times about the same few
// seconds on each).
type workload struct {
	name      string
	fleet     bool          // POST /v1/aggregates instead of /v1/ingest
	wal       bool          // run the daemon with -data-dir
	pace      time.Duration // open loop: one bucket every pace; 0 = closed loop
	pollEvery time.Duration // report poll interval of the second connection
	timedDays int
}

var workloads = []workload{
	{name: "raw_closed", pollEvery: 2 * time.Millisecond, timedDays: 3},
	{name: "raw_wal_closed", wal: true, pollEvery: 2 * time.Millisecond, timedDays: 1},
	{name: "fleet_wal_closed", fleet: true, wal: true, pollEvery: 2 * time.Millisecond, timedDays: 1},
	{name: "paced_raw", pace: 8 * time.Millisecond, pollEvery: 500 * time.Microsecond, timedDays: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func (wl workload) buckets() int { return (warmupDays + wl.timedDays) * dayBuckets }

// jobEvery is the job cadence in buckets; every jobEvery'th bucket ends
// a window and yields a report.
var jobEvery = pipeline.DefaultConfig().RunEvery

// firstJob is the first bucket after the warm-up day that ends a window.
// Set-up runs through it: the daemon is ready when its first report is
// served, which is also the first moment its queue is known to be empty
// (the warm-up leaves skipped buckets queued until the next read).
var firstJob = windowOf(warmupDays * dayBuckets)

// windows is how many reports the workload's buckets yield in all; the
// first of them belongs to set-up, the rest are timed.
func (wl workload) windows() int { return wl.timedDays * dayBuckets / jobEvery }

const (
	// maxLate is how far behind its schedule the open-loop generator may
	// fall, for reasons of its own, before the pass is void: beyond it the
	// offered load was not the stated one. A stall this long delays a
	// dozen buckets — under one window in a hundred, so p50 and p90 stand.
	maxLate = 100 * time.Millisecond
	// maxDrain is how long after the last seal the open-loop daemon may
	// take to publish the last report; longer means the backlog grew.
	maxDrain = time.Second
	// passTimeout bounds every wait on the daemon within one pass.
	passTimeout = 90 * time.Second
	// inFlight is how many windows the closed loops keep outstanding: the
	// writer posts a window only once all but inFlight of the earlier
	// ones have their report served. It is enough to keep both the
	// frontend and the backend busy, and it bounds the queue: with no
	// bound the frontend outruns the backend for the whole pass, and
	// report latency and memory measure nothing but the pass length.
	inFlight = 4
	// verdictLookback is how far back the read beside each fresh report
	// asks /v1/verdicts to reach: three hours of windows.
	verdictLookback = 35
)

// Request kinds for the failure accounting.
const (
	opIngest = iota
	opSeal
	opPoll
	opVerdicts
	opHealthz
	opMetrics
	opVerify
	nOps
)

var opNames = [nOps]string{"ingest", "seal", "report_poll", "verdicts", "healthz", "metrics", "report_verify"}

// tally counts requests attempted and failed per kind, plus the
// correctness failures that are not requests. A 429 is a failure like
// any other non-2xx: nothing is retried into the timing. A window whose
// report never appears is not counted here: the wait for it times out and
// ends the run with an error and no result.
type tally struct {
	attempted, failed [nOps]atomic.Int64
	mismatched        atomic.Int64 // report bodies differing from the reference
	invariants        atomic.Int64 // health or pacing invariants broken
}

func (t *tally) totals() (attempted, failed int64) {
	for k := 0; k < nOps; k++ {
		attempted += t.attempted[k].Load()
		failed += t.failed[k].Load()
	}
	failed += t.mismatched.Load() + t.invariants.Load()
	return attempted, failed
}

// conn is one HTTP connection to the daemon.
type conn struct {
	base   string
	client *http.Client
	tally  *tally
}

func newConn(base string, t *tally) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, client: &http.Client{Transport: tr, Timeout: passTimeout}, tally: t}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do issues one request and returns the status and body. A status
// outside okStatus is a failure of kind: counted, logged, and left to
// the caller to live with. Only a transport error is returned as an
// error, since nothing can follow it.
func (c *conn) do(ctx context.Context, kind int, method, path string, body []byte, okStatus ...int) (int, []byte, error) {
	c.tally.attempted[kind].Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.tally.failed[kind].Add(1)
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.tally.failed[kind].Add(1)
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	for _, ok := range okStatus {
		if resp.StatusCode == ok {
			return resp.StatusCode, data, nil
		}
	}
	c.tally.failed[kind].Add(1)
	logf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	return resp.StatusCode, data, nil
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Reports    int64 `json:"reports"`
	QueueDepth int   `json:"queue_depth"`
	WAL        *struct {
		Degraded     bool  `json:"degraded_durability"`
		Inconsistent int64 `json:"recovery_inconsistent"`
		Segments     int   `json:"segments"`
		Compactions  int64 `json:"compactions"`
	} `json:"wal"`
}

func (c *conn) healthz(ctx context.Context) (health, error) {
	var h health
	_, data, err := c.do(ctx, opHealthz, http.MethodGet, "/healthz", nil, http.StatusOK)
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(data, &h)
}

// counters scrapes /metrics.
func (c *conn) counters(ctx context.Context) (map[string]int64, error) {
	_, data, err := c.do(ctx, opMetrics, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	return m.Counters, json.Unmarshal(data, &m)
}

// passResult is what one pass — one fresh daemon — measured.
type passResult struct {
	setupS, timedS, cpuS float64
	records              int64
	reportMS, readMS     []float64 // one sample per window
	postMS               []float64 // one sample per timed ingest POST
	lateMaxMS            float64
	polls                int64
	peakRSSMB, recoveryS float64
	dirBytes             int64
	queueDepthMax        int
	walCompactions       int64
	walSegments          int
	counters             map[string]int64
}

// runner drives passes of one workload against fresh daemons.
type runner struct {
	wl    workload
	seed  int64
	bin   string
	dir   string // scratch directory for data dirs
	feed  *feed  // the bodies this workload posts
	raw   *feed  // record counts per bucket (cells and records agree 1:1)
	ref   map[int][]byte
	tally *tally
}

func (r *runner) ingestPath() string {
	if r.wl.fleet {
		return "/v1/aggregates"
	}
	return "/v1/ingest"
}

// post sends bucket b's body on c.
func (r *runner) post(ctx context.Context, c *conn, b int) error {
	_, _, err := c.do(ctx, opIngest, http.MethodPost, r.ingestPath(), r.feed.body(b), http.StatusAccepted)
	return err
}

func seal(ctx context.Context, c *conn, through int) error {
	_, _, err := c.do(ctx, opSeal, http.MethodPost, "/v1/seal", []byte(fmt.Sprintf(`{"through":%d}`, through)), http.StatusAccepted)
	return err
}

// ms is d in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sleepCtx sleeps for d, or returns false early if ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// setUp posts the warm-up day and the first window after it, seals, and
// waits for that window's report: exec to first report served is what
// starting this service costs. The warm-up alone has no observable end —
// it reads every fourth bucket and the queue drops the skipped ones only
// at the next read, so the queue depth it leaves depends on timing.
func (r *runner) setUp(ctx context.Context, c *conn) error {
	for b := 0; b <= firstJob; b++ {
		if err := r.post(ctx, c, b); err != nil {
			return err
		}
	}
	if err := seal(ctx, c, firstJob); err != nil {
		return err
	}
	path := fmt.Sprintf("/v1/reports/%d", firstJob)
	for {
		status, body, err := c.do(ctx, opPoll, http.MethodGet, path, nil, http.StatusOK, http.StatusNotFound)
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			r.check(firstJob, body, "when first served")
			return nil
		}
		if !sleepCtx(ctx, time.Millisecond) {
			return fmt.Errorf("first report never published: %w", ctx.Err())
		}
	}
}

// pass runs the workload once against a fresh daemon: start, warm up,
// the timed section, the health checks, then kill -9, restart, and a
// graceful drain. tr, when non-nil, records client-side spans.
func (r *runner) pass(ctx context.Context, n int, tr *tracer) (*passResult, error) {
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()
	res := &passResult{}
	dataDir := ""
	if r.wl.wal {
		dataDir = filepath.Join(r.dir, fmt.Sprintf("data-%d", n))
	}
	d, err := startDaemon(ctx, r.bin, r.seed, dataDir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	writer, reader := newConn(d.base, r.tally), newConn(d.base, r.tally)
	defer writer.close()
	defer reader.close()

	if err := r.setUp(ctx, writer); err != nil {
		return nil, err
	}
	res.setupS = time.Since(d.execAt).Seconds()

	if err := r.timed(ctx, d, writer, reader, tr, res); err != nil {
		return nil, err
	}

	// What the daemon says about itself at the end of the timed section.
	h, err := reader.healthz(ctx)
	if err != nil {
		return nil, err
	}
	windows := int64(r.wl.windows())
	if h.Reports != windows || h.QueueDepth != 0 {
		r.tally.invariants.Add(1)
		logf("%s: after the timed section /healthz has reports=%d (want %d), queue_depth=%d (want 0)", r.wl.name, h.Reports, windows, h.QueueDepth)
	}
	if h.WAL != nil {
		res.walCompactions, res.walSegments = h.WAL.Compactions, h.WAL.Segments
	}
	if res.counters, err = reader.counters(ctx); err != nil {
		return nil, err
	}
	if n := res.counters["server.ingest.backpressure"]; n > 0 {
		r.tally.invariants.Add(1)
		logf("%s: daemon counted %d backpressure refusals", r.wl.name, n)
	}
	writer.close()
	reader.close()

	if res.peakRSSMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	d.kill()
	return res, r.comeBack(ctx, dataDir, res)
}

// coldStarts is how many times an in-memory daemon is restarted to time
// its coming back: one cold start is some tens of milliseconds, and the
// median of a few is steadier than one.
const coldStarts = 5

// comeBack restarts the killed daemon on the same flags and directory.
// The service is restored once it answers /healthz with every report it
// had made durable: all of them with a data directory, none without.
// With a data directory every report is then fetched again and held to
// the reference, the daemon is drained with SIGTERM, and the directory —
// now in a settled state — is measured.
func (r *runner) comeBack(ctx context.Context, dataDir string, res *passResult) error {
	restart := func(durable int64) (*daemon, *conn, float64, error) {
		d, err := startDaemon(ctx, r.bin, r.seed, dataDir)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("restart: %w", err)
		}
		c := newConn(d.base, r.tally)
		h, err := c.healthz(ctx)
		if err != nil {
			d.kill()
			return nil, nil, 0, err
		}
		took := time.Since(d.execAt).Seconds()
		if h.Reports != durable {
			r.tally.invariants.Add(1)
			logf("%s: restarted daemon has %d reports, want %d", r.wl.name, h.Reports, durable)
		}
		if h.WAL != nil && (h.WAL.Degraded || h.WAL.Inconsistent > 0) {
			r.tally.invariants.Add(1)
			logf("%s: restarted daemon reports degraded_durability=%v recovery_inconsistent=%d", r.wl.name, h.WAL.Degraded, h.WAL.Inconsistent)
		}
		return d, c, took, nil
	}
	if !r.wl.wal {
		var took []float64
		for i := 0; i < coldStarts; i++ {
			d, c, s, err := restart(0)
			if err != nil {
				return err
			}
			c.close()
			d.kill()
			took = append(took, s)
		}
		res.recoveryS = median(took)
		return nil
	}
	d, c, took, err := restart(int64(r.wl.windows()))
	if err != nil {
		return err
	}
	defer d.kill()
	defer c.close()
	res.recoveryS = took
	for b := firstJob; b < r.wl.buckets(); b += jobEvery {
		_, body, err := c.do(ctx, opVerify, http.MethodGet, fmt.Sprintf("/v1/reports/%d", b), nil, http.StatusOK)
		if err != nil {
			return err
		}
		r.check(b, body, "after recovery")
	}
	c.close()
	if err := d.terminate(); err != nil {
		r.tally.invariants.Add(1)
		logf("%s: %v", r.wl.name, err)
	}
	res.dirBytes, err = dirBytes(dataDir)
	return err
}

// check holds one served report body to the reference.
func (r *runner) check(b int, body []byte, when string) {
	if !bytes.Equal(body, r.ref[b]) {
		r.tally.mismatched.Add(1)
		logf("%s: report for window ending %d differs from the reference %s (%d bytes served, %d expected)", r.wl.name, b, when, len(body), len(r.ref[b]))
	}
}

// timed is the measured section: the writer connection feeds the timed
// days while the reader connection waits for each window's report and
// reads verdicts beside it.
func (r *runner) timed(ctx context.Context, d *daemon, writer, reader *conn, tr *tracer, res *passResult) error {
	first, end := firstJob+1, r.wl.buckets()
	windows := (end - first) / jobEvery
	res.records = r.raw.records(first, end)

	// sent[k] is when window k's last ingest POST was due (open loop) or
	// begun (closed loop), in ns since t0; 0 until known.
	sent := make([]atomic.Int64, windows)
	// credits admits the closed loop's writer to its next window; the
	// reader returns one with every report it sees.
	credits := make(chan struct{}, windows+inFlight)
	for i := 0; i < inFlight; i++ {
		credits <- struct{}{}
	}

	// The driver shares the machine's cores with the daemon. A collection
	// of the driver's own heap (the world, the reference pipeline) in
	// mid-section takes a core from the daemon for tens of milliseconds
	// and reads as a latency spike of the service, so the driver collects
	// now and not again until the section ends; what it allocates
	// meanwhile is response bodies, a few tens of MB.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if r.wl.pace > 0 {
		for k := range sent {
			sent[k].Store(int64(time.Duration(k*jobEvery+jobEvery-1)*r.wl.pace) + 1)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	writeErr := make(chan error, 1)
	go func() {
		err := r.write(ctx, writer, tr, t0, sent, credits, res)
		if err != nil {
			cancel() // the reader would wait for reports that cannot come
		}
		writeErr <- err
	}()
	lastSeen, readErr := r.read(ctx, reader, tr, t0, sent, credits, res)
	if readErr != nil {
		cancel()
	}
	if err := errors.Join(<-writeErr, readErr); err != nil {
		return err
	}
	res.timedS = lastSeen.Sub(t0).Seconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	res.cpuS = cpu1 - cpu0

	if r.wl.pace > 0 {
		lastSeal := t0.Add(time.Duration(end-first-1) * r.wl.pace)
		if drain := lastSeen.Sub(lastSeal); drain > maxDrain {
			r.tally.invariants.Add(1)
			logf("%s: last report came %v after the last seal (limit %v): the backlog grew", r.wl.name, drain, maxDrain)
		}
	}
	return nil
}

// write is the writer connection's loop over the timed buckets.
func (r *runner) write(ctx context.Context, c *conn, tr *tracer, t0 time.Time, sent []atomic.Int64, credits <-chan struct{}, res *passResult) error {
	first, end := firstJob+1, r.wl.buckets()
	free := t0 // when the connection's previous request returned
	for b := first; b < end; b++ {
		i := b - first
		if r.wl.pace > 0 {
			due := t0.Add(time.Duration(i) * r.wl.pace)
			if !sleepCtx(ctx, time.Until(due)) {
				return ctx.Err()
			}
			// The generator is late by what it added itself: waking after
			// the bucket was due and the connection free. Time spent
			// waiting for the previous ack is the service's, and the
			// report latency, timed from the due time, already carries it.
			if free.After(due) {
				due = free
			}
			res.lateMaxMS = max(res.lateMaxMS, ms(time.Since(due)))
		} else if i%jobEvery == 0 {
			select {
			case <-credits:
			case <-ctx.Done():
				return ctx.Err()
			}
		} else if i%jobEvery == jobEvery-1 {
			sent[i/jobEvery].Store(time.Since(t0).Nanoseconds() + 1)
		}
		id := tr.start("driver.post", 0, windowOf(b))
		start := time.Now()
		err := r.post(ctx, c, b)
		res.postMS = append(res.postMS, ms(time.Since(start)))
		tr.end(id)
		if err != nil {
			return err
		}
		if r.wl.pace > 0 || b == end-1 {
			// The open loop seals each bucket as a wall-clock collector
			// would; the closed loop lets the next bucket's arrival seal
			// the previous one and seals only the last.
			id := tr.start("driver.seal", 0, windowOf(b))
			err := seal(ctx, c, b)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		free = time.Now()
	}
	return nil
}

// readVerdicts issues the read that goes with window b's report: the
// verdicts of the last three hours.
func readVerdicts(ctx context.Context, c *conn, tr *tracer, b int, res *passResult) error {
	id := tr.start("driver.get_verdicts", 0, b)
	start := time.Now()
	_, _, err := c.do(ctx, opVerdicts, http.MethodGet, fmt.Sprintf("/v1/verdicts?since=%d", b-verdictLookback), nil, http.StatusOK)
	res.readMS = append(res.readMS, ms(time.Since(start)))
	tr.end(id)
	return err
}

// read is the reader connection's loop over the timed windows: poll the
// window's report until it is served, hold it to the reference, then
// read the recent verdicts once. It returns when the last report was
// first seen.
func (r *runner) read(ctx context.Context, c *conn, tr *tracer, t0 time.Time, sent []atomic.Int64, credits chan<- struct{}, res *passResult) (time.Time, error) {
	var seen time.Time
	for k := range sent {
		b := firstJob + (k+1)*jobEvery
		var at time.Duration
		for {
			if ns := sent[k].Load(); ns > 0 {
				at = time.Duration(ns - 1)
				break
			}
			if !sleepCtx(ctx, r.wl.pollEvery) {
				return seen, ctx.Err()
			}
		}
		if !sleepCtx(ctx, time.Until(t0.Add(at))) {
			return seen, ctx.Err()
		}
		path := fmt.Sprintf("/v1/reports/%d", b)
		for {
			id := tr.start("driver.poll", 0, b)
			status, body, err := c.do(ctx, opPoll, http.MethodGet, path, nil, http.StatusOK, http.StatusNotFound)
			tr.end(id)
			res.polls++
			if err != nil {
				return seen, err
			}
			if status == http.StatusOK {
				seen = time.Now()
				res.reportMS = append(res.reportMS, ms(seen.Sub(t0)-at))
				r.check(b, body, "when first served")
				credits <- struct{}{}
				break
			}
			if !sleepCtx(ctx, r.wl.pollEvery) {
				return seen, fmt.Errorf("window ending %d never published: %w", b, ctx.Err())
			}
		}
		if err := readVerdicts(ctx, c, tr, b, res); err != nil {
			return seen, err
		}
		if k%8 == 7 {
			h, err := c.healthz(ctx)
			if err != nil {
				return seen, err
			}
			res.queueDepthMax = max(res.queueDepthMax, h.QueueDepth)
		}
	}
	return seen, nil
}
