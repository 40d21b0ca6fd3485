package server

// Crash-safety tests for the WAL-backed daemon: restart equivalence
// across seeded in-process crash points, SIGKILL-based kill injection
// against the real binary, corrupt-tail truncation, degraded-disk
// fallback, recovery stats on /healthz, and the Retry-After derivation.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"blameit/internal/active"
	"blameit/internal/alerting"
	"blameit/internal/bgp"
	"blameit/internal/chaos"
	"blameit/internal/ckpt"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
	"blameit/internal/wal"
)

// walEnv is one daemon incarnation. It can be crashed — backend killed
// wherever it is, no drain, no finalize, WAL abandoned without a final
// sync, exactly the state a SIGKILL leaves behind — and a fresh
// incarnation opened over the same directory.
type walEnv struct {
	srv   *Server
	ts    *httptest.Server
	alive bool
}

// openEnv starts one incarnation. makeSim builds the probe-serving
// simulator — a fresh instance per incarnation, because a real restart
// regenerates the engine from seeds and replay re-issues every probe
// from zero. dir == "" runs without durability (the seed behavior).
func openEnv(t *testing.T, dir string, makeSim func() *sim.Simulator, mut func(*Config)) *walEnv {
	t.Helper()
	srv, err := newEnvServer(dir, makeSim, mut)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	e := &walEnv{srv: srv, ts: httptest.NewServer(srv.Handler()), alive: true}
	t.Cleanup(func() {
		if !e.alive {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = e.srv.Shutdown(ctx)
		e.ts.Close()
		e.alive = false
	})
	return e
}

// envConfig is the configuration of an incarnation openEnv starts.
func envConfig(dir string, mut func(*Config)) Config {
	pcfg := pipeline.DefaultConfig()
	pcfg.Workers = 1
	cfg := Config{Pipeline: pcfg}
	if dir != "" {
		cfg.DataDir = dir
		cfg.WAL = wal.Config{Fsync: wal.SyncOff}
		cfg.CompactEveryReports = 8
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// newEnvServer is the server openEnv starts, or New's error.
func newEnvServer(dir string, makeSim func() *sim.Simulator, mut func(*Config)) (*Server, error) {
	probeSim := makeSim()
	cfg := envConfig(dir, mut)
	return New(pipeline.Deps{
		World:  probeSim.World,
		Table:  probeSim.Routes,
		Prober: probe.NewEngine(probeSim, cfg.Pipeline.ProbeNoiseMS),
	}, cfg)
}

// crash kills the incarnation: the backend's context is cancelled (it
// stops mid-read or mid-step, whatever it was doing), the listener goes
// away, and the log is closed without a sync. Nothing that was not
// already written reaches disk.
func (e *walEnv) crash() {
	e.srv.bcancel()
	<-e.srv.done
	e.ts.Close()
	if e.srv.wal != nil {
		// A goroutine cannot be killed: let a compaction pass in flight run
		// out before the next incarnation opens the directory. Kills inside
		// a pass are internal/wal's TestCompactionCrashPoints.
		e.srv.wal.stopCompacting()
		e.srv.wal.log.Abandon()
	}
	e.alive = false
}

// close drains the incarnation gracefully.
func (e *walEnv) close(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	e.ts.Close()
	e.alive = false
}

// quiesce polls until the backend has consumed the feed through sealed
// bucket b: the frontier has passed every bucket a read covers at this
// watermark (during warmup only every WarmupSampleEvery'th bucket is read)
// and, where a job window ends at b, its report is out. The read of a
// bucket follows the publish of the step before, so every report due
// earlier is out as well; the step of an off-cadence b may still be
// running.
func (e *walEnv) quiesce(t *testing.T, b netmodel.Bucket) {
	t.Helper()
	cfg := e.srv.cfg
	want := b + 1
	if b < cfg.WarmupBuckets {
		stride := netmodel.Bucket(cfg.Pipeline.WarmupSampleEvery)
		want = b - b%stride + 1
	}
	reportDue := b >= cfg.WarmupBuckets && (int(b)+1)%e.srv.pipe.Cfg.RunEvery == 0
	deadline := time.Now().Add(60 * time.Second)
	for {
		e.srv.q.mu.Lock()
		frontier := e.srv.q.frontier
		e.srv.q.mu.Unlock()
		if frontier >= want {
			if last, ok := e.srv.reports.latest(); !reportDue || ok && last.to >= b {
				return
			}
		}
		if err := e.srv.Err(); err != nil || time.Now().After(deadline) {
			t.Fatalf("quiesce: bucket %d never drained (frontier %d, backend err: %v)", b, frontier, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func checkRecoveryConsistent(t *testing.T, e *walEnv) {
	t.Helper()
	wh := e.srv.WALHealth()
	if wh == nil {
		t.Fatal("reopened daemon reports no WAL health")
	}
	if wh.RecoveryInconsistent != 0 {
		t.Fatalf("recovery marked %d inconsistencies: %+v", wh.RecoveryInconsistent, wh)
	}
	if wh.Degraded {
		t.Fatalf("durability degraded after reopen: %+v", wh)
	}
}

// crashPoint is one seeded kill: after bucket's ingest, in one of three
// modes. "boundary" quiesces first (the sealed-bucket boundary),
// "afterseal" kills with the seal acked but the backend mid-flight
// (post-seal pre-report), "midbatch" kills between two halves of the
// bucket's batch before its seal (mid-batch).
type crashPoint struct {
	bucket netmodel.Bucket
	mode   string
}

// seededPoints draws n distinct crash buckets in [1, horizon-2] with at
// least one mid-batch and one after-seal kill per run.
func seededPoints(rng *rand.Rand, horizon, n int) []crashPoint {
	picked := map[int]bool{}
	for len(picked) < n {
		picked[1+rng.Intn(horizon-2)] = true
	}
	buckets := make([]int, 0, n)
	for b := range picked {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	points := make([]crashPoint, n)
	for i, b := range buckets {
		mode := "boundary"
		switch i {
		case 0:
			mode = "midbatch"
		case 1:
			mode = "afterseal"
		}
		points[i] = crashPoint{bucket: netmodel.Bucket(b), mode: mode}
	}
	return points
}

// runServiceFeed drives one service run over pre-generated bucket
// streams — POST, seal, next — crashing and reopening at each crash
// point. With lockstep it waits for the backend after every seal, so that
// each bucket is read before the next one's records arrive. It returns
// the final incarnation, quiesced through the last bucket and still
// serving, so callers can read reports, verdicts, and health before
// closing it.
func runServiceFeed(t *testing.T, dir string, makeSim func() *sim.Simulator, mut func(*Config), streams [][]trace.Observation, points []crashPoint, lockstep bool) *walEnv {
	t.Helper()
	e := openEnv(t, dir, makeSim, mut)
	pi := 0
	for b := range streams {
		bb := netmodel.Bucket(b)
		obs := streams[b]
		if pi < len(points) && points[pi].bucket == bb && points[pi].mode == "midbatch" && len(obs) > 1 {
			half := len(obs) / 2
			postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, obs[:half]))
			e.crash()
			e = openEnv(t, dir, makeSim, mut)
			checkRecoveryConsistent(t, e)
			obs = obs[half:] // replay restored the first half as a leftover
			pi++
		}
		if len(obs) > 0 {
			postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, obs))
		}
		if st, body := postSeal(t, e.ts.Client(), e.ts.URL, bb); st != http.StatusAccepted {
			t.Fatalf("seal %d = %d (%s)", bb, st, body)
		}
		if lockstep {
			e.quiesce(t, bb)
		}
		if pi < len(points) && points[pi].bucket == bb {
			if points[pi].mode == "boundary" {
				e.quiesce(t, bb)
			}
			pi++
			e.crash()
			e = openEnv(t, dir, makeSim, mut)
			checkRecoveryConsistent(t, e)
		}
	}
	e.quiesce(t, netmodel.Bucket(len(streams)-1))
	return e
}

func reportsIndex(t *testing.T, client *http.Client, base string) []byte {
	t.Helper()
	resp, err := client.Get(base + "/v1/reports")
	if err != nil {
		t.Fatalf("GET /v1/reports: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading /v1/reports: %v", err)
	}
	return buf.Bytes()
}

// simStreams pre-generates every bucket's observation stream from one
// feed simulator, so each arm of an equivalence test ingests the
// identical byte-for-byte telemetry.
func simStreams(feed *sim.Simulator, horizon int) [][]trace.Observation {
	streams := make([][]trace.Observation, horizon)
	for b := range streams {
		streams[b] = append([]trace.Observation(nil), feed.ObservationsAt(netmodel.Bucket(b), nil)...)
	}
	return streams
}

// TestWALRestartEquivalence is the in-process half of the crash gate:
// the same trace fed to a durability-free daemon, a WAL daemon that
// never crashes, and WAL daemons crash-killed at seeded points —
// mid-batch, post-seal pre-report, and quiesced sealed-bucket
// boundaries, crossing warmup, step, and compaction cadences — must all
// serve byte-identical /v1/reports.
func TestWALRestartEquivalence(t *testing.T) {
	const warmup = 36
	horizon, runs, pointsPerRun := 144, 4, 5
	if testing.Short() {
		horizon, runs, pointsPerRun = 72, 1, 3
	}
	streams := simStreams(newTestSim(1), horizon)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	mut := func(c *Config) { c.WarmupBuckets = warmup }

	ref := runServiceFeed(t, "", mkSim, mut, streams, nil, false)
	want := collectCanonical(t, ref.ts.Client(), ref.ts.URL)
	wantIdx := reportsIndex(t, ref.ts.Client(), ref.ts.URL)
	ref.close(t)
	if len(want) == 0 {
		t.Fatal("reference run produced no reports — test horizon too short")
	}

	clean := runServiceFeed(t, t.TempDir(), mkSim, mut, streams, nil, false)
	if got := collectCanonical(t, clean.ts.Client(), clean.ts.URL); !bytes.Equal(got, want) {
		t.Fatalf("WAL-enabled run (no crash) diverged from the durability-free run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	clean.close(t)

	for run := 0; run < runs; run++ {
		run := run
		t.Run(fmt.Sprintf("crashes-%d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000*run + 7)))
			points := seededPoints(rng, horizon, pointsPerRun)
			if testing.Short() {
				// One kill in warm-up, one in the first stepped window and
				// one after the first report, as the checks below assume.
				points = []crashPoint{{bucket: 21, mode: "midbatch"}, {bucket: 44, mode: "afterseal"}, {bucket: 61, mode: "boundary"}}
			}
			t.Logf("crash points: %+v", points)
			// Every incarnation runs, and recovers, at the worker count:
			// the reference ran at one.
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
					mut := func(c *Config) { mut(c); c.Pipeline.Workers = workers }
					e := runServiceFeed(t, t.TempDir(), mkSim, mut, streams, points, false)
					defer e.close(t)
					if got := collectCanonical(t, e.ts.Client(), e.ts.URL); !bytes.Equal(got, want) {
						t.Errorf("reports diverged after %d crash/recover cycles", len(points))
					}
					if got := reportsIndex(t, e.ts.Client(), e.ts.URL); !bytes.Equal(got, wantIdx) {
						t.Errorf("report index diverged after crashes:\n got %s\nwant %s", got, wantIdx)
					}
					wh := e.srv.WALHealth()
					if wh.RecoveredBuckets == 0 || wh.RecoveredReports == 0 {
						t.Errorf("final incarnation recovered nothing: %+v", wh)
					}
				})
			}
		})
	}
}

// runAggFeed is runServiceFeed for the aggregate feed: every bucket
// arrives on /v1/aggregates as two agents' partials in one batch, and the
// next bucket's arrival seals it (the streaming discipline), so the
// journal carries agg-batch records where the raw feed's has batches.
// Every seventh bucket is followed by a redelivery of the bucket before
// it, after the backend has consumed that one: the queue holds the cells
// as stale and serves them late, ahead of the next bucket. Crash modes:
// "midbatch" kills between the two agents' partials, posted separately
// (the first is pending, its bucket unsealed, when the daemon dies);
// "afterpost" kills right after the batch is acked, backend wherever it
// is; "compacted" kills after the batch is acked AND the backend has
// finished the bucket before it — report, compaction pass and all — so
// the pass ran with this bucket's cells pending; "boundary"
// seals, quiesces and kills.
// compactions[i] is how many passes the incarnation killed at points[i]
// had completed.
func runAggFeed(t *testing.T, dir string, makeSim func() *sim.Simulator, mut func(*Config), streams [][]trace.Observation, points []crashPoint) (e *walEnv, compactions []int64) {
	t.Helper()
	e = openEnv(t, dir, makeSim, mut)
	post := func(parts ...*quartet.Partial) {
		postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/aggregates", aggBody(t, parts...))
	}
	reopen := func() {
		e.crash() // waits for a pass in flight, so the count below is final
		compactions = append(compactions, e.srv.WALHealth().Compactions)
		e = openEnv(t, dir, makeSim, mut)
		checkRecoveryConsistent(t, e)
	}
	partials := func(b int) (*quartet.Partial, *quartet.Partial) {
		obs, bb := streams[b], netmodel.Bucket(b)
		return partialOf(quartet.PartialID{Agent: 0, Seq: int64(b + 1)}, bb, obs[:len(obs)/2]),
			partialOf(quartet.PartialID{Agent: 1, Seq: int64(b + 1)}, bb, obs[len(obs)/2:])
	}
	pi := 0
	for b := range streams {
		bb := netmodel.Bucket(b)
		mode := ""
		if pi < len(points) && points[pi].bucket == bb {
			mode = points[pi].mode
			pi++
		}
		pa, pb := partials(b)
		if mode == "midbatch" {
			post(pa)
			reopen()
			post(pb)
		} else {
			post(pa, pb)
		}
		if b%7 == 3 {
			e.quiesce(t, bb-1)
			late, _ := partials(b - 1)
			post(late)
		}
		switch mode {
		case "afterpost":
			reopen()
		case "compacted":
			e.quiesce(t, bb-1)
			reopen()
		case "boundary":
			if st, body := postSeal(t, e.ts.Client(), e.ts.URL, bb); st != http.StatusAccepted {
				t.Fatalf("seal %d = %d (%s)", bb, st, body)
			}
			e.quiesce(t, bb)
			reopen()
		}
	}
	last := netmodel.Bucket(len(streams) - 1)
	if st, body := postSeal(t, e.ts.Client(), e.ts.URL, last); st != http.StatusAccepted {
		t.Fatalf("seal %d = %d (%s)", last, st, body)
	}
	e.quiesce(t, last)
	return e, compactions
}

// TestWALRestartEquivalenceAggregates is TestWALRestartEquivalence over
// /v1/aggregates: the queued partials (agg-batch records, replayed up to
// each read) and the watermark their arrival set must survive kills before the
// first compaction and after later ones, including one with a partial
// pending and one with a redelivery held as stale.
func TestWALRestartEquivalenceAggregates(t *testing.T) {
	const warmup = 36
	horizon := 108
	if testing.Short() {
		horizon = 72
	}
	streams := simStreams(newTestSim(1), horizon)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	mut := func(c *Config) {
		c.WarmupBuckets = warmup
		c.CompactEveryReports = 1 // a pass after every report
	}

	ref, _ := runAggFeed(t, "", mkSim, mut, streams, nil)
	want := collectCanonical(t, ref.ts.Client(), ref.ts.URL)
	ref.close(t)
	if len(want) == 0 {
		t.Fatal("reference run produced no reports — test horizon too short")
	}
	wantLate := ref.srv.Pipeline().Quarantine().Count(ingest.ReasonLate)
	if wantLate == 0 {
		t.Fatal("the redeliveries were not served late: the feed does not exercise the stale hold")
	}

	points := []crashPoint{
		{bucket: 20, mode: "afterpost"}, // mid-warmup
		{bucket: 37, mode: "midbatch"},  // before the first report, so before any pass
		{bucket: 42, mode: "compacted"}, // the window ending at 41 reported and compacted under bucket 42's cells
		{bucket: 52, mode: "boundary"},
		{bucket: 59, mode: "midbatch"}, // a bucket with a redelivery after it
		{bucket: 66, mode: "afterpost"},
	}
	e, compactions := runAggFeed(t, t.TempDir(), mkSim, mut, streams, points)
	defer e.close(t)
	if compactions[0] != 0 || compactions[1] != 0 || compactions[2] == 0 {
		t.Fatalf("compactions per killed incarnation = %v: the kills do not fall either side of one", compactions)
	}
	if got := collectCanonical(t, e.ts.Client(), e.ts.URL); !bytes.Equal(got, want) {
		t.Errorf("reports diverged after %d crash/recover cycles on the aggregate feed", len(points))
	}
	if got := e.srv.Pipeline().Quarantine().Count(ingest.ReasonLate); got != wantLate {
		t.Errorf("late quarantine: crash arm %d, uninterrupted arm %d", got, wantLate)
	}
	if pending, _ := e.srv.q.Depth(); pending != 0 {
		t.Errorf("queue after the final seal: %d records pending, want none", pending)
	}
}

// TestWALHealthzRecoveryStats pins the exact recovery counters a
// restart surfaces on /healthz, and the compaction ones of the pass that
// follows the restart's first new report.
func TestWALHealthzRecoveryStats(t *testing.T) {
	dir := t.TempDir()
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	streams := simStreams(newTestSim(1), 12)

	e := openEnv(t, dir, mkSim, nil) // warmup 0: every bucket is stepped
	for b := 0; b < 9; b++ {
		postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
		if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
			t.Fatalf("seal %d = %d (%s)", b, st, body)
		}
		e.quiesce(t, netmodel.Bucket(b))
	}
	e.crash()

	e = openEnv(t, dir, mkSim, func(c *Config) { c.CompactEveryReports = 1 })
	defer e.close(t)
	wh := e.srv.WALHealth()
	if wh.RecoveredBuckets != 9 || wh.RecoveredBatches != 9 || wh.RecoveredReports != 3 {
		t.Fatalf("recovered buckets/batches/reports = %d/%d/%d, want 9/9/3",
			wh.RecoveredBuckets, wh.RecoveredBatches, wh.RecoveredReports)
	}
	if wh.TruncatedBytes != 0 || wh.RecoveryInconsistent != 0 || wh.Degraded {
		t.Fatalf("unexpected recovery state: %+v", wh)
	}

	// The same stats through the HTTP surface.
	resp, err := e.ts.Client().Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var h healthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	if h.WAL == nil {
		t.Fatal("/healthz has no wal section with -data-dir set")
	}
	if *h.WAL != *wh {
		t.Fatalf("/healthz wal section %+v != WALHealth %+v", *h.WAL, *wh)
	}

	// The reopened daemon keeps going where the dead one stopped.
	for b := 9; b < 12; b++ {
		postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
		if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
			t.Fatalf("seal %d = %d (%s)", b, st, body)
		}
		e.quiesce(t, netmodel.Bucket(b))
	}
	if n := e.srv.Reports(); n != 4 {
		t.Fatalf("reports after restart+resume = %d, want 4", n)
	}

	// The new report's pass finds no checkpoint — no day has ended — and
	// unlinks nothing: a restart from zero needs every batch. The
	// journal's and the reports' one segment each are left.
	waitFor(t, "the compaction pass", func() bool { return e.srv.WALHealth().Compactions == 1 })
	wh = e.srv.WALHealth()
	if _, err := os.Stat(filepath.Join(dir, "wal-0000000001.log")); err != nil || wh.Segments != 2 || wh.LastCompactUnlinked != 0 {
		t.Fatalf("after the pass: %+v, wal-0000000001.log stat err %v", wh, err)
	}
	_, body := (&testEnv{srv: e.srv, ts: e.ts}).get(t, "/healthz")
	if want := `"segments":2,"compactions":1,"last_compact_unlinked_bytes":0}`; !strings.Contains(string(body), want) {
		t.Fatalf("/healthz = %s, want a wal section ending %s", body, want)
	}
}

// TestWALCorruptTailTruncated garbles the newest segment's tail and
// verifies the reopen truncates at the last valid record, reports the
// dropped bytes, and recovers everything before the corruption.
func TestWALCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	streams := simStreams(newTestSim(1), 6)

	e := openEnv(t, dir, mkSim, nil)
	for b := range streams {
		postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
		if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
			t.Fatalf("seal %d = %d (%s)", b, st, body)
		}
		e.quiesce(t, netmodel.Bucket(b))
	}
	want := collectCanonical(t, e.ts.Client(), e.ts.URL)
	e.close(t)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	sort.Strings(segs)
	garbage := bytes.Repeat([]byte{0xEE}, 37)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e = openEnv(t, dir, mkSim, nil)
	defer e.close(t)
	wh := e.srv.WALHealth()
	if wh.TruncatedBytes != int64(len(garbage)) {
		t.Fatalf("TruncatedBytes = %d, want %d", wh.TruncatedBytes, len(garbage))
	}
	if wh.RecoveryInconsistent != 0 {
		t.Fatalf("truncated tail flagged inconsistency: %+v", wh)
	}
	if got := collectCanonical(t, e.ts.Client(), e.ts.URL); !bytes.Equal(got, want) {
		t.Fatal("reports diverged after corrupt-tail truncation")
	}
}

// TestWALHistoryTruncatedBatchesRequeued tears the journal's last record
// — the read of the last bucket — while the batch and the seal before it
// stay: the restart re-queues the batch, reads it again, and serves the
// same reports as before, the last one regenerated.
func TestWALHistoryTruncatedBatchesRequeued(t *testing.T) {
	dir := t.TempDir()
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	streams := simStreams(newTestSim(1), 6)

	e := openEnv(t, dir, mkSim, nil)
	for b := range streams {
		postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
		if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
			t.Fatalf("seal %d = %d (%s)", b, st, body)
		}
		e.quiesce(t, netmodel.Bucket(b))
	}
	want := collectCanonical(t, e.ts.Client(), e.ts.URL)
	e.crash()

	path := filepath.Join(dir, "wal-0000000001.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	e = openEnv(t, dir, mkSim, nil)
	defer e.close(t)
	last := netmodel.Bucket(len(streams) - 1)
	e.quiesce(t, last)
	wh := e.srv.WALHealth()
	if wh.TruncatedBytes == 0 || wh.RecoveredBuckets != len(streams)-1 || wh.RecoveredBatches != len(streams) {
		t.Fatalf("after tearing the last read: %+v, want %d reads and %d batches", wh, len(streams)-1, len(streams))
	}
	if got := collectCanonical(t, e.ts.Client(), e.ts.URL); !bytes.Equal(got, want) {
		t.Fatal("reports diverged after the journal lost its last read")
	}
	if wh.RecoveryInconsistent != 0 {
		t.Fatalf("the re-read flagged inconsistency: %+v", wh)
	}
}

// TestWALDegradedDisk yanks the data directory out from under a running
// daemon: the next segment rotation fails, durability degrades loudly,
// and the data plane keeps serving from memory.
func TestWALDegradedDisk(t *testing.T) {
	dir := t.TempDir()
	streams := simStreams(newTestSim(1), 24)
	e := openEnv(t, dir, func() *sim.Simulator { return newTestSim(1) }, func(c *Config) {
		c.WAL.SegmentBytes = 4 << 10 // rotate every few records
	})
	defer func() {
		if e.alive {
			e.close(t)
		}
	}()

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	degradedAt := -1
	for b := 0; b < len(streams); b++ {
		postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
		if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
			t.Fatalf("seal %d = %d (%s)", b, st, body)
		}
		e.quiesce(t, netmodel.Bucket(b))
		if degradedAt < 0 && e.srv.WALHealth().Degraded {
			degradedAt = b
		}
		// Once degraded, run a few more buckets to show the data plane
		// keeps ingesting, stepping, and publishing from memory.
		if degradedAt >= 0 && b >= degradedAt+6 {
			break
		}
	}
	if degradedAt < 0 {
		t.Fatal("removing the data directory never degraded durability")
	}
	if n := e.srv.Reports(); n == 0 {
		t.Fatal("no reports published while degraded")
	}
	status, h := (&testEnv{srv: e.srv, ts: e.ts}).health(t)
	if status != http.StatusOK || h.WAL == nil || !h.WAL.Degraded {
		t.Fatalf("healthz = %d %+v, want 200 with wal.degraded_durability", status, h.WAL)
	}
}

// TestRetryAfterDerivation pins the queue-occupancy → Retry-After
// mapping, including the full-queue answer of 5s and the clamp.
func TestRetryAfterDerivation(t *testing.T) {
	cases := []struct {
		occupied, max int
		want          string
	}{
		{0, 100, "1"},
		{24, 100, "1"},
		{25, 100, "2"},
		{50, 100, "3"},
		{99, 100, "4"},
		{100, 100, "5"}, // full queue
		{180, 100, "8"},
		{900, 100, "8"}, // clamp
		{5, 0, "1"},     // unbounded queue
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.occupied, c.max); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %s, want %s", c.occupied, c.max, got, c.want)
		}
	}
}

// TestRetryAfterFullQueuePinned fills the ingest queue exactly and pins
// the 429's Retry-After header at the derived full-queue value.
func TestRetryAfterFullQueuePinned(t *testing.T) {
	obs0 := newTestSim(1).ObservationsAt(0, nil)
	e := newTestEnv(t, func(c *Config) {
		c.ManualSeal = true // nothing seals, so nothing drains
		c.MaxPendingRecords = len(obs0)
	})
	if st, body := e.post(t, "/v1/ingest", jsonlBody(t, obs0)); st != http.StatusAccepted {
		t.Fatalf("exact-fill ingest = %d (%s), want 202", st, body)
	}
	resp, err := e.ts.Client().Post(e.ts.URL+"/v1/ingest", "application/x-ndjson",
		bytes.NewReader(jsonlBody(t, e.bucketObs(1))))
	if err != nil {
		t.Fatalf("POST over full queue: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST over full queue = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("Retry-After on full queue = %q, want \"5\"", ra)
	}
}

// chaosWorld builds the shared topology, fault schedule, and simulator
// constructor for the restart-under-chaos run: a 1-day warmup plus a
// 1-day localization window with two middle-AS incidents inside it.
func chaosWorld() (*topology.World, func() *sim.Simulator) {
	w := topology.Generate(topology.SmallScale(), 42)
	horizon := netmodel.Bucket(3 * netmodel.BucketsPerDay)
	var fs []faults.Fault
	for i, region := range []netmodel.Region{netmodel.RegionUSA, netmodel.RegionEurope} {
		tr := w.Transits[region]
		fs = append(fs, faults.Fault{
			Kind: faults.MiddleASFault, AS: tr[i%len(tr)], ScopeCloud: faults.NoCloud,
			Start:    netmodel.Bucket(300 + 150*i),
			Duration: 18, ExtraMS: 90,
		})
	}
	mk := func() *sim.Simulator {
		w := topology.Generate(topology.SmallScale(), 42)
		tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 7)
		return sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(99))
	}
	return w, mk
}

// chaosStreams pulls every bucket through a chaos source wrapped around
// the feed simulator — drops, corruption, duplicates, and late
// redeliveries land in the per-bucket streams exactly as they would at
// a flaky edge — then sanitizes non-finite RTTs for the JSONL wire:
// encoding/json cannot carry NaN/Inf, and a negative mean RTT is
// equally corrupt to the quarantine, so the injected-corruption count
// survives the transport bit for bit.
func chaosStreams(t *testing.T, w *topology.World, feed *sim.Simulator, ccfg chaos.Config, horizon int) ([][]trace.Observation, chaos.SourceStats) {
	t.Helper()
	src := chaos.NewSource(ingest.SourceFunc(feed.ObservationsAt), ccfg, netmodel.PrefixID(len(w.Prefixes)))
	streams := make([][]trace.Observation, horizon)
	ctx := context.Background()
	for b := range streams {
		var obs []trace.Observation
		var err error
		for attempt := 0; attempt < 4; attempt++ { // transient injections retry
			if obs, err = src.ObservationsAt(ctx, netmodel.Bucket(b), nil); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("chaos stream bucket %d: %v", b, err)
		}
		streams[b] = append([]trace.Observation(nil), obs...)
		for i := range streams[b] {
			if math.IsNaN(streams[b][i].MeanRTT) {
				streams[b][i].MeanRTT = -1e6
			} else if math.IsInf(streams[b][i].MeanRTT, 0) {
				streams[b][i].MeanRTT = -2e6
			}
		}
	}
	return streams, src.Stats()
}

// gradeVerdicts grades every served verdict against simulator ground
// truth, counting only clear-cut cases (dominant, sizable, middle
// segment) exactly as the chaos end-to-end test does.
func gradeVerdicts(t *testing.T, body []byte, truth *sim.Simulator) (graded, wrong int) {
	t.Helper()
	var wins []verdictWindow
	if err := json.Unmarshal(body, &wins); err != nil {
		t.Fatalf("decoding /v1/verdicts: %v", err)
	}
	for _, win := range wins {
		for _, v := range win.Verdicts {
			if !v.Probed || v.Degraded || !v.OK {
				continue
			}
			inf := truth.DominantInflation(v.Issue.Prefixes[0], v.Issue.Cloud, win.To)
			if inf.Segment != netmodel.SegMiddle || !inf.Dominant || inf.TotalMS < 20 {
				continue
			}
			graded++
			if v.AS != inf.AS {
				wrong++
			}
		}
	}
	return graded, wrong
}

// TestRestartUnderChaos is the satellite gate: a 2-day light-chaos run
// killed and recovered at sealed-bucket boundaries — mid-warmup,
// mid-incident, and near the end — must serve reports byte-identical to
// an uninterrupted durability-free run over the same chaotic feed,
// localize nothing wrongly, and keep the quarantine books balanced
// against the injected faults across every restart.
func TestRestartUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("2-day chaos restart run skipped in -short mode")
	}
	const warmup = netmodel.BucketsPerDay
	const horizon = 2 * netmodel.BucketsPerDay
	w, mkSim := chaosWorld()
	streams, st := chaosStreams(t, w, mkSim(), chaos.Light(1234), horizon)
	if st.Corrupted == 0 || st.LateDelivered == 0 || st.Duplicated == 0 {
		t.Fatalf("light profile injected nothing over %d buckets: %+v", horizon, st)
	}
	mut := func(c *Config) {
		c.WarmupBuckets = warmup
		// The service queue discards records for buckets the sampled
		// warmup skips; read every bucket so each injected late record
		// meets the quarantine and the books stay exactly balanced.
		c.Pipeline.WarmupSampleEvery = 1
	}

	// Lockstep: the chaos source delivers a held-back record in the stream
	// of a later bucket, on the premise that its own bucket has been
	// consumed by then, and the books below count it as late. Over HTTP
	// that holds only if the backend has read each bucket before the next
	// stream is posted; a feeder that runs ahead lands those records in
	// buckets still pending, where they are served on time instead — how
	// many depends on the race, and differs between the two arms.
	ref := runServiceFeed(t, "", mkSim, mut, streams, nil, true)
	want := collectCanonical(t, ref.ts.Client(), ref.ts.URL)
	ref.close(t)
	wantQuar := ref.srv.Pipeline().Quarantine()

	points := []crashPoint{
		{bucket: 150, mode: "boundary"}, // mid-warmup
		{bucket: 310, mode: "boundary"}, // inside the first incident
		{bucket: 540, mode: "boundary"}, // near the end
	}
	e := runServiceFeed(t, t.TempDir(), mkSim, mut, streams, points, true)
	got := collectCanonical(t, e.ts.Client(), e.ts.URL)
	verdicts, status := []byte(nil), 0
	{
		resp, err := e.ts.Client().Get(e.ts.URL + "/v1/verdicts")
		if err != nil {
			t.Fatalf("GET /v1/verdicts: %v", err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		verdicts, status = buf.Bytes(), resp.StatusCode
	}
	e.close(t)

	if !bytes.Equal(got, want) {
		t.Errorf("chaos run reports diverged across %d crash/recover cycles", len(points))
	}
	if status != http.StatusOK {
		t.Fatalf("GET /v1/verdicts = %d", status)
	}
	graded, wrong := gradeVerdicts(t, verdicts, mkSim())
	if graded == 0 {
		t.Fatal("no clear-cut verdicts graded — chaos world too quiet")
	}
	if wrong != 0 {
		t.Errorf("%d/%d clear-cut verdicts wrongly localized after restarts", wrong, graded)
	}

	// The quarantine books after three restarts must balance the
	// injected fault schedule exactly, and match the uninterrupted arm.
	q := e.srv.Pipeline().Quarantine()
	if got := q.Count(ingest.ReasonCorrupt); got != st.Corrupted {
		t.Errorf("corrupt: injected %d, quarantined %d", st.Corrupted, got)
	}
	if got := q.Count(ingest.ReasonLate); got != st.LateDelivered {
		t.Errorf("late: delivered %d, quarantined %d", st.LateDelivered, got)
	}
	if got := q.Count(ingest.ReasonDuplicate); got != st.Duplicated {
		t.Errorf("duplicate: injected %d, quarantined %d", st.Duplicated, got)
	}
	for _, r := range []ingest.Reason{ingest.ReasonCorrupt, ingest.ReasonLate, ingest.ReasonDuplicate} {
		if a, b := q.Count(r), wantQuar.Count(r); a != b {
			t.Errorf("quarantine %v: crash arm %d, uninterrupted arm %d", r, a, b)
		}
	}
	t.Logf("chaos restart: graded=%d wrong=%d injected=%+v", graded, wrong, st)
}

// --- SIGKILL harness against the real binary ---

// daemonProc is one blameitd subprocess bound to an ephemeral port.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
}

func startDaemon(t *testing.T, bin string, args []string) *daemonProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	// The listen line prints only after recovery has replayed, so
	// finding it means the daemon is fully caught up.
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "blameitd listening on "); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("daemon never printed its listen address (scan err %v)", sc.Err())
	}
	go func() { // drain the rest so the child never blocks on stdout
		for sc.Scan() {
		}
	}()
	return &daemonProc{cmd: cmd, base: "http://" + addr}
}

// kill SIGKILLs the daemon — the real thing, no cleanup of any kind.
func (d *daemonProc) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	_, _ = d.cmd.Process.Wait()
}

// httpQuiesce polls /healthz until the daemon (no warm-up, default job
// cadence) has read every bucket through b and published every report due
// by then. An empty queue past the watermark only says bucket b was read:
// its step, and the report of a window ending at b, may still be running.
func httpQuiesce(t *testing.T, client *http.Client, base string, b netmodel.Bucket) {
	t.Helper()
	every := netmodel.Bucket(pipeline.DefaultConfig().RunEvery)
	lastDue := (b+1)/every*every - 1 // end of the last window complete at b, or -1
	waitFor(t, fmt.Sprintf("daemon drained through bucket %d", b), func() bool {
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			return false
		}
		var h healthResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil || h.QueueDepth != 0 || h.Watermark <= b {
			return false
		}
		return lastDue < 0 || (h.LastWindowTo != nil && *h.LastWindowTo >= lastDue)
	})
}

// TestCrashRecoverySIGKILL is the kill-injection gate against the real
// binary: the daemon is `kill -9`ed at 20 seeded points while ingesting
// a deterministic 96-bucket feed — half of the kills land on a drained
// sealed-bucket boundary, half mid-window right after a seal ack — and
// each restart must replay its WAL and end byte-identical to an
// uninterrupted in-memory daemon fed the same stream.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-injection run skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "blameitd")
	if out, err := exec.Command(goBin, "build", "-o", bin, "blameit/cmd/blameitd").CombinedOutput(); err != nil {
		t.Fatalf("building blameitd: %v\n%s", err, out)
	}

	// The feed mirrors cmd/blameitd's seed derivation for -seed 42, so
	// the daemon's regenerated world matches the trace producer's.
	const seed = 42
	w := topology.Generate(topology.SmallScale(), seed)
	horizon := netmodel.Bucket(netmodel.BucketsPerDay)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), horizon, seed+1).Faults
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, seed+2)
	feed := sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(seed+3))
	const buckets = 96
	streams := simStreams(feed, buckets)

	worldArgs := []string{
		"-addr", "127.0.0.1:0", "-scale", "small", "-seed", "42",
		"-workload", "random", "-warmup", "0", "-days", "1",
	}
	client := &http.Client{Timeout: 30 * time.Second}
	feedRange := func(t *testing.T, base string, from, to int) {
		t.Helper()
		for b := from; b < to; b++ {
			postWithRetry(t, client, base+"/v1/ingest", jsonlBody(t, streams[b]))
			if st, body := postSeal(t, client, base, netmodel.Bucket(b)); st != http.StatusAccepted {
				t.Fatalf("seal %d = %d (%s)", b, st, body)
			}
		}
	}

	// Control: an uninterrupted in-memory daemon over the same feed.
	ctl := startDaemon(t, bin, worldArgs)
	feedRange(t, ctl.base, 0, buckets)
	httpQuiesce(t, client, ctl.base, buckets-1)
	want := collectCanonical(t, client, ctl.base)
	wantIdx := reportsIndex(t, client, ctl.base)
	ctl.kill(t)
	if len(want) == 0 {
		t.Fatal("control daemon produced no reports")
	}

	// Kill arm: 20 seeded kill -9 points over one WAL directory.
	rng := rand.New(rand.NewSource(4211))
	killSet := map[int]bool{}
	for len(killSet) < 20 {
		killSet[1+rng.Intn(buckets-2)] = true
	}
	kills := make([]int, 0, 20)
	for b := range killSet {
		kills = append(kills, b)
	}
	sort.Ints(kills)

	dataDir := filepath.Join(tmp, "wal")
	walArgs := append(append([]string{}, worldArgs...), "-data-dir", dataDir, "-fsync", "off", "-compact-every", "6")
	d := startDaemon(t, bin, walArgs)
	next := 0
	for i, kb := range kills {
		feedRange(t, d.base, next, kb+1)
		next = kb + 1
		if i%2 == 0 {
			// Sealed-bucket boundary: every acked record consumed.
			httpQuiesce(t, client, d.base, netmodel.Bucket(kb))
		} // else: mid-window, the seal acked but the backend wherever it is
		d.kill(t)
		d = startDaemon(t, bin, walArgs)
	}
	feedRange(t, d.base, next, buckets)
	httpQuiesce(t, client, d.base, buckets-1)

	got := collectCanonical(t, client, d.base)
	gotIdx := reportsIndex(t, client, d.base)
	if !bytes.Equal(got, want) {
		t.Errorf("reports diverged after %d kill -9/recover cycles (%d vs %d bytes)", len(kills), len(got), len(want))
	}
	if !bytes.Equal(gotIdx, wantIdx) {
		t.Errorf("report index diverged:\n got %s\nwant %s", gotIdx, wantIdx)
	}
	resp, err := client.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.WAL == nil || h.WAL.RecoveryInconsistent != 0 || h.WAL.Degraded {
		t.Errorf("final daemon WAL health: %+v", h.WAL)
	}
	d.kill(t)
}

// TestWALRestartAfterDrainFlush covers the recovery branch a graceful stop
// leaves behind: a Shutdown off the job cadence journals a Final report,
// and every later incarnation must flush at that bucket again — report it
// once, and carry the job's effects (ticket numbers among them) into the
// windows after it. The daemon is fed to an off-cadence bucket, drained,
// reopened, fed on, crashed, reopened and fed to the end; its reports and
// index must equal an in-process pipeline stepped over the same streams
// with FinalizeContext at the same bucket.
func TestWALRestartAfterDrainFlush(t *testing.T) {
	const warmup, flushAt, crashAt, horizon = 12, 22, 31, 40
	streams := simStreams(newTestSim(1), horizon)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	mut := func(c *Config) { c.WarmupBuckets = warmup }
	want, wantIdx := flushedReference(t, streams, warmup, flushAt)

	e := runDrainFlush(t, t.TempDir(), mkSim, mut, streams, flushAt, crashAt)
	defer e.close(t)
	if got := collectCanonical(t, e.ts.Client(), e.ts.URL); !bytes.Equal(got, want) {
		t.Errorf("reports diverged from the in-process pipeline flushed at bucket %d: %d vs %d canonical bytes", flushAt, len(got), len(want))
	}
	var gotIdx []reportSummary
	if err := json.Unmarshal(reportsIndex(t, e.ts.Client(), e.ts.URL), &gotIdx); err != nil {
		t.Fatalf("decoding /v1/reports: %v", err)
	}
	if fmt.Sprint(gotIdx) != fmt.Sprint(wantIdx) {
		t.Errorf("report index diverged:\n got %+v\nwant %+v", gotIdx, wantIdx)
	}
}

// flushedReference runs streams through one in-process pipeline, never
// restarted, flushed after bucket flushAt: the reports a daemon drained
// there and restarted must serve, canonical bytes and index.
func flushedReference(t *testing.T, streams [][]trace.Observation, warmup, flushAt netmodel.Bucket) ([]byte, []reportSummary) {
	t.Helper()
	refSim := newTestSim(1)
	pcfg := pipeline.DefaultConfig()
	pcfg.Workers = 1
	p := pipeline.New(pipeline.Deps{
		World: refSim.World, Table: refSim.Routes,
		Prober: probe.NewEngine(refSim, pcfg.ProbeNoiseMS),
		Source: ingest.SourceFunc(func(b netmodel.Bucket, buf []trace.Observation) []trace.Observation {
			return append(buf, streams[b]...)
		}),
	}, pcfg)
	ctx := context.Background()
	if err := p.WarmupContext(ctx, 0, warmup); err != nil {
		t.Fatalf("reference warmup: %v", err)
	}
	var want bytes.Buffer
	wantIdx := []reportSummary{}
	keep := func(rep *pipeline.Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("reference pipeline: %v", err)
		}
		if rep == nil {
			return
		}
		canonical, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want.Write(canonical)
		want.WriteByte('\n')
		wantIdx = append(wantIdx, reportSummary{
			Seq: int64(len(wantIdx)), From: rep.From, To: rep.To,
			Results: len(rep.Results), Verdicts: len(rep.Verdicts), Tickets: len(rep.Tickets),
		})
	}
	for b := warmup; b < netmodel.Bucket(len(streams)); b++ {
		keep(p.StepContext(ctx, b))
		if b == flushAt {
			rep, err := p.FinalizeContext(ctx)
			if err == nil && rep == nil {
				t.Fatal("reference flush produced no report: flushAt is on the cadence")
			}
			keep(rep, err)
		}
	}
	return want.Bytes(), wantIdx
}

// runDrainFlush feeds streams to a daemon over dir bucket by bucket,
// drains it gracefully after bucket flushAt (journaling the final report
// of its off-cadence window), restarts it, crashes it after crashAt,
// restarts it again and feeds it the rest. It returns the last
// incarnation, still serving.
func runDrainFlush(t *testing.T, dir string, mkSim func() *sim.Simulator, mut func(*Config), streams [][]trace.Observation, flushAt, crashAt netmodel.Bucket) *walEnv {
	t.Helper()
	e := openEnv(t, dir, mkSim, mut)
	feed := func(from, to netmodel.Bucket) {
		t.Helper()
		for b := from; b <= to; b++ {
			postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
			if st, body := postSeal(t, e.ts.Client(), e.ts.URL, b); st != http.StatusAccepted {
				t.Fatalf("seal %d = %d (%s)", b, st, body)
			}
		}
		e.quiesce(t, to)
	}
	feed(0, flushAt)
	e.close(t) // journals the Final report over the off-cadence window

	e = openEnv(t, dir, mkSim, mut)
	checkRecoveryConsistent(t, e)
	feed(flushAt+1, crashAt)
	e.crash()

	e = openEnv(t, dir, mkSim, mut)
	checkRecoveryConsistent(t, e)
	feed(crashAt+1, netmodel.Bucket(len(streams)-1))
	return e
}

// TestWALDefaultFingerprintStable reopens one data directory under the
// fingerprint New derives when Config.WAL.Meta is empty. What cannot change
// a report — a fresh metrics registry, another worker count — must reopen;
// what replay determinism depends on must still be refused.
func TestWALDefaultFingerprintStable(t *testing.T) {
	dir := t.TempDir()
	open := func(mut func(*Config)) error {
		t.Helper()
		probeSim := newTestSim(1)
		cfg := Config{Pipeline: pipeline.DefaultConfig(), DataDir: dir, WAL: wal.Config{Fsync: wal.SyncOff}}
		cfg.Pipeline.Metrics = metrics.NewRegistry()
		cfg.Pipeline.Workers = 1
		if mut != nil {
			mut(&cfg)
		}
		srv, err := New(pipeline.Deps{
			World:  probeSim.World,
			Table:  probeSim.Routes,
			Prober: probe.NewEngine(probeSim, cfg.Pipeline.ProbeNoiseMS),
		}, cfg)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		return nil
	}
	if err := open(nil); err != nil {
		t.Fatalf("first open: %v", err)
	}
	if err := open(nil); err != nil {
		t.Fatalf("reopen with a fresh metrics registry refused: %v", err)
	}
	if err := open(func(c *Config) { c.Pipeline.Workers = 2 }); err != nil {
		t.Fatalf("reopen with Workers 1 -> 2 refused: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"Core.Tau":      func(c *Config) { c.Pipeline.Core.Tau = 0.7 },
		"RunEvery":      func(c *Config) { c.Pipeline.RunEvery = 4 },
		"WarmupBuckets": func(c *Config) { c.WarmupBuckets = 12 },
		"ManualSeal":    func(c *Config) { c.ManualSeal = true },
	} {
		if err := open(mut); !errors.Is(err, wal.ErrMetaMismatch) {
			t.Errorf("reopen with a changed %s: err = %v, want ErrMetaMismatch", name, err)
		}
	}
}

// captureLog routes the process log through a JSON handler into the
// returned buffer for the rest of the test.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	oldLogger, oldOut, oldFlags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, nil)))
	t.Cleanup(func() {
		slog.SetDefault(oldLogger)
		log.SetOutput(oldOut)
		log.SetFlags(oldFlags)
	})
	return &buf
}

// logEvents reads the captured log back as one canonical JSON object per
// event: no time or level, durations and error texts only marked present.
func logEvents(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		for _, k := range []string{"duration_ms", "open_ms", "read_ms", "world_wait_ms", "restore_ms", "catchup_ms", "ms"} {
			if d, ok := ev[k].(float64); ok && d >= 0 {
				ev[k] = "ok"
			}
		}
		delete(ev, "time")
		delete(ev, "level")
		if _, isErr := ev["err"]; isErr && ev["msg"] == "recovery.report_undecodable" {
			ev["err"] = "set"
		}
		canon, _ := json.Marshal(ev)
		got = append(got, string(canon))
	}
	return got
}

// verifyingState is the recovery side of a walState that opened over a
// journal holding reports, without a log behind it.
func verifyingState(reports ...wal.Report) *walState {
	ws := &walState{reports: &reportLog{}, journaled: reports, byWindow: map[walWindow]int{}}
	for i, jr := range reports {
		ws.byWindow[walWindow{jr.From, jr.To}] = i
	}
	ws.verifying.Store(true)
	return ws
}

// TestWALLogEvents captures the durability glue's structured log events:
// the recovery ones from a journal holding one report whose canonical
// JSON does not decode, the rest from the walState calls that raise them
// over two journaled reports, one regenerated with other bytes and one
// never regenerated.
func TestWALLogEvents(t *testing.T) {
	buf := captureLog(t)
	dir := t.TempDir()
	wcfg := wal.Config{Fsync: wal.SyncOff, Meta: "log-events"}
	lg, _, err := wal.Open(dir, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendReport(wal.Report{Seq: 1, From: 0, To: 2, Canonical: []byte("not json")}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	e := openEnv(t, dir, func() *sim.Simulator { return newTestSim(1) }, func(c *Config) { c.WAL = wcfg })
	e.close(t)

	var journaled []wal.Report
	for seq, r := range []*pipeline.Report{{From: 0, To: 2}, {From: 3, To: 5}} {
		canonical, err := r.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		journaled = append(journaled, wal.Report{Seq: int64(seq + 1), From: r.From, To: r.To, Canonical: canonical})
	}
	ws := verifyingState(journaled...)
	ws.journalReport(0, &pipeline.Report{From: 0, To: 2}, []byte("regenerated"))
	ws.verifyRegenerated(time.Now())
	ws.absorb(errors.New("disk gone"))
	ws.absorb(errors.New("said once"))

	// A compaction pass over a journal with two checkpoints: it unlinks the
	// segment before the older one's seam: a 43-byte header, meta and base
	// record, the batch's 24-byte frame and the read's 11.
	cl, _, err := wal.Open(t.TempDir(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := []trace.Observation{{Bucket: 1, Samples: 1, MeanRTT: 10, Clients: 1}}
	if err := cl.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	for b := netmodel.Bucket(1); b <= 2; b++ {
		if err := cl.AppendBucket(b, obs[:2-b]); err != nil {
			t.Fatal(err)
		}
		pos, err := cl.Cut(wal.Checkpoint{Reads: int(b), Bucket: b})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WriteCheckpoint(pos, func(*ckpt.Encoder) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	(&walState{log: cl}).compact()
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		`{"err":"set","msg":"recovery.report_undecodable","seq":1}`,
		`{"batches":0,"buckets":0,"catchup_ms":"ok","checkpoint_bucket":-1,"duration_ms":"ok","inconsistent":1,"journal_bytes":43,"journal_segments":1,"msg":"recovery.complete","open_ms":"ok","read_ms":"ok","replayed_buckets":0,"reports":1,"restore_ms":"ok","truncated_bytes":0,"world_wait_ms":"ok"}`,
		`{"from":0,"msg":"recovery.report_mismatch","to":2}`,
		`{"msg":"recovery.unregenerated","n":1}`,
		`{"err":"disk gone","msg":"wal.degraded"}`,
		`{"bytes":78,"duration_ms":"ok","msg":"wal.compact","segments":1}`,
	}
	if got := logEvents(t, buf); !reflect.DeepEqual(got, want) {
		t.Fatalf("log events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestWALLeftoverReportDecoded restarts over journals whose reports the
// backend does not regenerate byte for byte. A report for a window the
// backend never regenerates must still reach the read APIs in full once
// catch-up is over, and count once against the recovery; a journaled
// report whose bytes are not a report must reach none of them, take no
// seq, and count once as well. A report for a window the backend does
// regenerate, with other bytes, is served as the regeneration; with
// bytes that are not a report, the regeneration is journaled anew.
func TestWALLeftoverReportDecoded(t *testing.T) {
	leftover := &pipeline.Report{
		From: 90, To: 92,
		Results:  make([]core.Result, 3),
		Verdicts: []active.Verdict{{Probed: true, OK: true, AS: 8075, Segment: netmodel.SegMiddle}},
		Tickets:  make([]alerting.Ticket, 2),
	}
	canonical, err := leftover.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wcfg := wal.Config{Fsync: wal.SyncOff, Meta: "leftover"}
	makeSim := func() *sim.Simulator { return newTestSim(1) }
	reopen := func(t *testing.T, dir string) *walEnv {
		t.Helper()
		return openEnv(t, dir, makeSim, func(c *Config) { c.WAL = wcfg })
	}
	// restart journals the first window's batches and reads, when buckets
	// is set, and then reports, and opens a daemon over the journal.
	restart := func(t *testing.T, buckets bool, reports ...wal.Report) (*walEnv, string) {
		t.Helper()
		dir := t.TempDir()
		lg, _, err := wal.Open(dir, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if buckets {
			feed := makeSim()
			for b := netmodel.Bucket(0); b < 3; b++ {
				obs := feed.ObservationsAt(b, nil)
				if err := lg.AppendBatch(obs); err != nil {
					t.Fatal(err)
				}
				if err := lg.AppendBucket(b, obs); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, jr := range reports {
			if err := lg.AppendReport(jr); err != nil {
				t.Fatal(err)
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		return reopen(t, dir), dir
	}
	get := func(t *testing.T, e *walEnv, path string) (int, []byte) {
		t.Helper()
		resp, err := e.ts.Client().Get(e.ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body.Bytes()
	}
	healthReports := func(t *testing.T, e *walEnv) int64 {
		t.Helper()
		_, body := get(t, e, "/healthz")
		var h healthResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		return h.Reports
	}
	// regeneration is what the read APIs serve for the first window when
	// the journal holds its buckets and nothing else.
	regeneration := func(t *testing.T) map[string][]byte {
		t.Helper()
		e, _ := restart(t, true)
		checkRecoveryConsistent(t, e)
		out := map[string][]byte{}
		for _, path := range []string{"/v1/reports/1", "/v1/reports", "/v1/verdicts"} {
			code, body := get(t, e, path)
			if code != http.StatusOK {
				t.Fatalf("GET %s = %d %s", path, code, body)
			}
			out[path] = body
		}
		return out
	}
	servesRegeneration := func(t *testing.T, e *walEnv, want map[string][]byte) {
		t.Helper()
		for path, body := range want {
			if _, got := get(t, e, path); !bytes.Equal(got, body) {
				t.Errorf("GET %s = %s, want the regeneration's %s", path, got, body)
			}
		}
	}

	t.Run("decodable", func(t *testing.T) {
		e, _ := restart(t, false, wal.Report{Seq: 7, From: leftover.From, To: leftover.To, Canonical: canonical})
		if got := e.srv.WALHealth().RecoveryInconsistent; got != 1 {
			t.Errorf("recovery_inconsistent = %d, want 1 (one report never regenerated)", got)
		}
		wantVerdicts, _ := json.Marshal([]verdictWindow{{From: 90, To: 92, Verdicts: leftover.Verdicts}})
		if _, body := get(t, e, "/v1/verdicts"); !bytes.Equal(bytes.TrimSpace(body), wantVerdicts) {
			t.Errorf("/v1/verdicts = %s, want %s", body, wantVerdicts)
		}
		wantIndex, _ := json.Marshal([]reportSummary{{Seq: 0, From: 90, To: 92, Results: 3, Verdicts: 1, Tickets: 2}})
		if _, body := get(t, e, "/v1/reports"); !bytes.Equal(bytes.TrimSpace(body), wantIndex) {
			t.Errorf("/v1/reports = %s, want %s", body, wantIndex)
		}
		if code, body := get(t, e, "/v1/reports/91"); code != http.StatusOK || !bytes.Equal(body, append(canonical, '\n')) {
			t.Errorf("/v1/reports/91 = %d %s, want the journaled bytes", code, body)
		}
	})

	t.Run("undecodable", func(t *testing.T) {
		e, _ := restart(t, false, wal.Report{Seq: 7, From: leftover.From, To: leftover.To, Canonical: []byte(`{"From":90,`)})
		if got := e.srv.WALHealth().RecoveryInconsistent; got != 1 {
			t.Errorf("recovery_inconsistent = %d, want 1 (one undecodable report, counted once)", got)
		}
		if _, body := get(t, e, "/v1/verdicts"); string(bytes.TrimSpace(body)) != "[]" {
			t.Errorf("/v1/verdicts = %s, want []", body)
		}
		if _, body := get(t, e, "/v1/reports"); string(bytes.TrimSpace(body)) != "[]" {
			t.Errorf("/v1/reports = %s, want []", body)
		}
		if code, _ := get(t, e, "/v1/reports/91"); code != http.StatusNotFound {
			t.Errorf("/v1/reports/91 = %d, want 404", code)
		}
		if got := healthReports(t, e); got != 0 {
			t.Errorf("/healthz reports = %d, want 0 (an undecodable report takes no seq)", got)
		}
	})

	t.Run("mismatch", func(t *testing.T) {
		want := regeneration(t)
		other := *leftover
		other.From, other.To = 0, 2
		otherBytes, err := other.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		buf := captureLog(t)
		e, _ := restart(t, true, wal.Report{Seq: 0, From: 0, To: 2, Canonical: otherBytes})
		if got := e.srv.WALHealth().RecoveryInconsistent; got != 1 {
			t.Errorf("recovery_inconsistent = %d, want 1 (one regeneration with other bytes)", got)
		}
		servesRegeneration(t, e, want)
		mismatches := 0
		for _, ev := range logEvents(t, buf) {
			if strings.Contains(ev, `"msg":"recovery.report_mismatch"`) {
				mismatches++
			}
		}
		if mismatches != 1 {
			t.Errorf("recovery.report_mismatch logged %d times, want once", mismatches)
		}
	})

	t.Run("undecodable regenerated", func(t *testing.T) {
		want := regeneration(t)
		e, dir := restart(t, true, wal.Report{Seq: 0, From: 0, To: 2, Canonical: []byte("not json")})
		if got := e.srv.WALHealth().RecoveryInconsistent; got != 1 {
			t.Errorf("recovery_inconsistent = %d, want 1 (one undecodable report, counted once)", got)
		}
		servesRegeneration(t, e, want)
		if got := healthReports(t, e); got != 1 {
			t.Errorf("/healthz reports = %d, want 1", got)
		}
		// The regeneration was journaled anew and supersedes the
		// undecodable record: the next restart matches it.
		e.close(t)
		e = reopen(t, dir)
		checkRecoveryConsistent(t, e)
		servesRegeneration(t, e, want)
	})
}

// TestWALReadCountMismatch restarts over a journal whose read of bucket 1
// claims one observation fewer than the batches before it re-derive: the
// replay is not the history the journal records, and recovery fails,
// naming the bucket and both counts, rather than serving a diverged
// backend.
func TestWALReadCountMismatch(t *testing.T) {
	dir := t.TempDir()
	wcfg := wal.Config{Fsync: wal.SyncOff, Meta: "read-count"}
	lg, _, err := wal.Open(dir, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := newTestSim(1)
	for b := netmodel.Bucket(0); b < 3; b++ {
		obs := feed.ObservationsAt(b, nil)
		if err := lg.AppendBatch(obs); err != nil {
			t.Fatal(err)
		}
		if b == 1 {
			obs = obs[1:]
		}
		if err := lg.AppendBucket(b, obs); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := newEnvServer(dir, func() *sim.Simulator { return newTestSim(1) }, func(c *Config) { c.WAL = wcfg })
	if err == nil {
		srv.Shutdown(context.Background())
		t.Fatal("a journal whose read does not re-derive was served")
	}
	n := len(feed.ObservationsAt(1, nil))
	if want := fmt.Sprintf("bucket 1 served %d observations where the journal read %d", n, n-1); !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery failed with %v, want it to say %q", err, want)
	}
}
