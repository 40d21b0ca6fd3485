package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/fleet"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
	"blameit/internal/wal"
)

// aggBody flattens partials into one JSONL aggregate batch.
func aggBody(t *testing.T, parts ...*quartet.Partial) []byte {
	t.Helper()
	var cells []ingest.AggCell
	for _, p := range parts {
		cells = ingest.AggCellsOf(p, cells)
	}
	var buf bytes.Buffer
	if err := ingest.WriteAggJSONL(&buf, cells); err != nil {
		t.Fatalf("encoding aggregate cells: %v", err)
	}
	return buf.Bytes()
}

// partialOf pre-aggregates a bucket's observations into one partial.
func partialOf(id quartet.PartialID, b netmodel.Bucket, obs []trace.Observation) *quartet.Partial {
	p := quartet.NewPartial(id, b)
	for _, o := range obs {
		p.Observe(o)
	}
	return p
}

// TestAggregateIngest exercises the /v1/aggregates endpoint surface:
// accepted batches report their partial/cell counts, redelivered
// partials are deduplicated, undecodable lines follow the strict/salvage
// split, and the books land in the server.aggregates.* counters.
func TestAggregateIngest(t *testing.T) {
	e := newTestEnv(t, nil)
	obs0 := e.bucketObs(0)
	obs1 := e.bucketObs(1)
	if len(obs0) == 0 || len(obs1) == 0 {
		t.Fatal("feed produced empty buckets")
	}
	half := len(obs0) / 2
	p0a := partialOf(quartet.PartialID{Agent: 0, Epoch: 0, Seq: 1}, 0, obs0[:half])
	p0b := partialOf(quartet.PartialID{Agent: 1, Epoch: 0, Seq: 1}, 0, obs0[half:])
	p1 := partialOf(quartet.PartialID{Agent: 0, Epoch: 0, Seq: 2}, 1, obs1)

	status, body := e.post(t, "/v1/aggregates", aggBody(t, p0a, p0b))
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/aggregates = %d (%s), want 202", status, body)
	}
	// Redelivering agent 0's partial alongside bucket 1 must dedup it.
	status, body = e.post(t, "/v1/aggregates", aggBody(t, p1, p0a))
	if status != http.StatusAccepted {
		t.Fatalf("redelivery POST = %d (%s), want 202", status, body)
	}
	if !bytes.Contains(body, []byte(`"deduped":1`)) {
		t.Errorf("redelivery response %s does not count the deduplicated partial", body)
	}

	// Strict mode rejects a batch with a mangled line outright...
	bad := append(aggBody(t, p1), []byte("{\"agent\":notjson}\n")...)
	if status, _ := e.post(t, "/v1/aggregates", bad); status != http.StatusBadRequest {
		t.Errorf("strict-mode bad line = %d, want 400", status)
	}
	// ...salvage mode quarantines the line and keeps the batch.
	status, body = e.post(t, "/v1/aggregates?mode=salvage", bad)
	if status != http.StatusAccepted {
		t.Fatalf("salvage-mode POST = %d (%s), want 202", status, body)
	}
	if !bytes.Contains(body, []byte(`"rejected":1`)) {
		t.Errorf("salvage response %s does not count the rejected line", body)
	}

	e.seal(t, 1)
	waitFor(t, "aggregate buckets stepped", func() bool {
		pending, pushed := e.srv.q.Depth()
		return pushed > 0 && pending == 0
	})
	e.shutdown(t)

	counters, _ := e.metricsSnapshot(t)
	// Three accepted batches; the strict reject counts separately. The
	// redeliveries (p0a in batch 2, p1 in the salvage batch) both hit
	// still-pending buckets and dedup.
	wantCounters := map[string]int64{
		"server.aggregates.batches":          3,
		"server.aggregates.rejected_batches": 1,
		"server.aggregates.partials":         3,
		"server.aggregates.deduped":          2,
		"server.aggregates.cells":            int64(len(obs0) + half + 2*len(obs1)),
		"server.aggregates.flushed_records":  int64(len(obs0) + len(obs1)),
		"ingest.quarantine.malformed":        1,
	}
	for name, want := range wantCounters {
		if got := counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

// aggReplaySimFor builds the small-scale aggregate-equivalence workload;
// each caller gets a fresh instance from the same seeds.
func aggReplaySimFor(workers int) *sim.Simulator {
	w := topology.Generate(topology.SmallScale(), 7)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), replayHorizon, 8).Faults
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), replayHorizon, 9)
	scfg := sim.DefaultConfig(10)
	scfg.Workers = workers
	return sim.New(w, tbl, faults.NewSchedule(fs), scfg)
}

// TestServiceAggregateEquivalence is the HTTP leg of the fleet
// equivalence property: a fleet's per-agent partial batches POSTed to
// /v1/aggregates in a fully shuffled order — across agents AND buckets,
// with redelivered duplicates mixed in — must produce reports
// byte-identical to the batch CLI's run over the same telemetry. Manual
// sealing holds every bucket open until the end, so arrival order
// carries no information at all; the canonical merge is what restores
// the stream.
func TestServiceAggregateEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate service equivalence in -short mode")
	}
	const agents = 4

	// Reference: the batch CLI's live run.
	cfg := pipeline.DefaultConfig()
	cfg.Workers = 1
	want := canonicalRun(t, pipeline.NewSim(aggReplaySimFor(1), cfg), replayWarmup, replayHorizon)
	if len(want) == 0 {
		t.Fatal("batch run produced no reports")
	}

	// The fleet's batches: one per (agent, bucket) partial.
	feed := aggReplaySimFor(1)
	fl := fleet.New(feed, agents)
	var batches [][]byte
	for b := netmodel.Bucket(0); b < replayHorizon; b++ {
		for _, ag := range fl.Agents {
			batches = append(batches, aggBody(t, ag.Collect(b)))
		}
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	// Sprinkle duplicates: every 50th batch is delivered twice.
	dups := 0
	for i := 0; i < len(batches); i += 50 {
		batches = append(batches, batches[i])
		dups++
	}

	probeSim := aggReplaySimFor(1)
	pcfg := pipeline.DefaultConfig()
	pcfg.Workers = 1
	srv, err := New(pipeline.Deps{
		World:  probeSim.World,
		Table:  probeSim.Routes,
		Prober: probe.NewEngine(probeSim, pcfg.ProbeNoiseMS),
	}, Config{
		Pipeline:      pcfg,
		WarmupBuckets: replayWarmup,
		ManualSeal:    true,
		// The whole run stays buffered until the final seal.
		MaxPendingRecords: 64 << 20,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	for _, body := range batches {
		postWithRetry(t, client, ts.URL+"/v1/aggregates", body)
	}
	if status, body := postSeal(t, client, ts.URL, replayHorizon-1); status != 202 {
		t.Fatalf("seal = %d (%s), want 202", status, body)
	}
	e := &testEnv{srv: srv, ts: ts}
	e.shutdown(t)

	got := collectCanonical(t, client, ts.URL)
	if !bytes.Equal(got, want) {
		t.Fatalf("shuffled fleet-over-HTTP reports diverged from the batch run: %d vs %d canonical bytes", len(got), len(want))
	}
	counters, _ := e.metricsSnapshot(t)
	if got := counters["server.aggregates.deduped"]; got != int64(dups) {
		t.Errorf("deduped %d redelivered partials, want %d", got, dups)
	}
	if got, want := counters["server.aggregates.partials"], int64(len(batches)-dups); got != want {
		t.Errorf("merged %d partials, want %d", got, want)
	}
}

// feedHorizon and feedWarmup size the small-world runs the feed tests
// below compare: a warm-up, then six job windows.
const (
	feedWarmup  = netmodel.Bucket(12)
	feedHorizon = netmodel.Bucket(30)
)

// cellBody encodes aggregate cells as one JSONL batch.
func cellBody(t *testing.T, cells []ingest.AggCell) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ingest.WriteAggJSONL(&buf, cells); err != nil {
		t.Fatalf("encoding aggregate cells: %v", err)
	}
	return buf.Bytes()
}

// quarterPartials pre-aggregates a bucket's observations as four agents
// owning consecutive quarters of the stream.
func quarterPartials(b netmodel.Bucket, obs []trace.Observation) []*quartet.Partial {
	parts := make([]*quartet.Partial, 4)
	for a := range parts {
		lo, hi := a*len(obs)/4, (a+1)*len(obs)/4
		parts[a] = partialOf(quartet.PartialID{Agent: a, Seq: int64(b) + 1}, b, obs[lo:hi])
	}
	return parts
}

// runFeed drives one streaming-mode daemon over buckets [0, feedHorizon):
// post delivers bucket b however the test likes, the last bucket is sealed
// explicitly, and the drained daemon's canonical report stream is returned.
func runFeed(t *testing.T, mut func(*Config), post func(e *testEnv, b netmodel.Bucket, obs []trace.Observation)) (*testEnv, []byte) {
	t.Helper()
	e := newTestEnv(t, func(c *Config) {
		c.WarmupBuckets = feedWarmup
		if mut != nil {
			mut(c)
		}
	})
	for b := netmodel.Bucket(0); b < feedHorizon; b++ {
		post(e, b, e.bucketObs(b))
	}
	e.seal(t, feedHorizon-1)
	e.shutdown(t)
	got := collectCanonical(t, e.ts.Client(), e.ts.URL)
	if len(got) == 0 {
		t.Fatal("feed run produced no reports")
	}
	return e, got
}

func (e *testEnv) mustPost(t *testing.T, path string, body []byte) {
	t.Helper()
	if status, resp := e.post(t, path, body); status != http.StatusAccepted {
		t.Fatalf("POST %s = %d (%s), want 202", path, status, resp)
	}
}

func postRaw(t *testing.T) func(*testEnv, netmodel.Bucket, []trace.Observation) {
	return func(e *testEnv, _ netmodel.Bucket, obs []trace.Observation) {
		e.mustPost(t, "/v1/ingest", jsonlBody(t, obs))
	}
}

// TestMixedFeedEquivalence: one daemon fed the lower half of the prefix
// space raw on /v1/ingest and the upper half as edge partials on
// /v1/aggregates — whichever of the two arrives first — serves reports
// byte-identical to a daemon fed everything raw. Both feeds land in one
// queue, which serves a bucket as its raw runs, then its partials.
func TestMixedFeedEquivalence(t *testing.T) {
	_, want := runFeed(t, nil, postRaw(t))
	e, got := runFeed(t, nil, func(e *testEnv, b netmodel.Bucket, obs []trace.Observation) {
		mid := netmodel.PrefixID(len(e.feed.World.Prefixes) / 2)
		cut := 0
		for cut < len(obs) && obs[cut].Prefix < mid {
			cut++
		}
		raw := jsonlBody(t, obs[:cut])
		agg := aggBody(t, partialOf(quartet.PartialID{Agent: 1, Seq: int64(b) + 1}, b, obs[cut:]))
		if b%2 == 0 {
			e.mustPost(t, "/v1/ingest", raw)
			e.mustPost(t, "/v1/aggregates", agg)
		} else {
			e.mustPost(t, "/v1/aggregates", agg)
			e.mustPost(t, "/v1/ingest", raw)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("mixed-feed reports diverged from the raw-only run: %d vs %d canonical bytes", len(got), len(want))
	}
	counters, _ := e.metricsSnapshot(t)
	if counters["server.ingest.records"] == 0 || counters["server.aggregates.cells"] == 0 {
		t.Fatalf("the run did not use both feeds: %d raw records, %d cells", counters["server.ingest.records"], counters["server.aggregates.cells"])
	}
}

// TestAggregateFeedMetamorphic is the streaming-mode order property: with
// the watermark sealing each bucket as the next one's cells arrive,
// permuting the partials inside a body and re-splitting a bucket's
// partials across bodies leaves every report byte-identical — to the
// canonical delivery and to the raw feed.
func TestAggregateFeedMetamorphic(t *testing.T) {
	_, raw := runFeed(t, nil, postRaw(t))
	_, canonical := runFeed(t, nil, func(e *testEnv, b netmodel.Bucket, obs []trace.Observation) {
		e.mustPost(t, "/v1/aggregates", aggBody(t, quarterPartials(b, obs)...))
	})
	if !bytes.Equal(canonical, raw) {
		t.Fatalf("canonical partial delivery diverged from the raw feed: %d vs %d canonical bytes", len(canonical), len(raw))
	}
	rng := rand.New(rand.NewSource(5))
	bodies := 0
	_, got := runFeed(t, nil, func(e *testEnv, b netmodel.Bucket, obs []trace.Observation) {
		parts := quarterPartials(b, obs)
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		for len(parts) > 0 {
			n := 1 + rng.Intn(len(parts))
			e.mustPost(t, "/v1/aggregates", aggBody(t, parts[:n]...))
			parts = parts[n:]
			bodies++
		}
	})
	if bodies <= int(feedHorizon) {
		t.Fatalf("%d bodies for %d buckets: the seed never split a bucket", bodies, feedHorizon)
	}
	if !bytes.Equal(got, canonical) {
		t.Fatalf("permuted and re-split partials changed the reports: %d vs %d canonical bytes", len(got), len(canonical))
	}
}

// TestAggregateCollisionQuarantined pins what happens to hostile input:
// two partials — or two cells of one partial — claiming the same quartet
// in a bucket. Nothing is averaged: the queue passes every cell on, in
// PartialID order, and the pipeline's validator keeps the first and
// quarantines the rest as duplicates, so the reports equal the run without
// the intruders.
func TestAggregateCollisionQuarantined(t *testing.T) {
	const hostile = feedWarmup + 4
	cellsOf := func(b netmodel.Bucket, obs []trace.Observation) []ingest.AggCell {
		var cells []ingest.AggCell
		for _, p := range quarterPartials(b, obs) {
			cells = ingest.AggCellsOf(p, cells)
		}
		return cells
	}
	_, want := runFeed(t, nil, func(e *testEnv, b netmodel.Bucket, obs []trace.Observation) {
		e.mustPost(t, "/v1/aggregates", cellBody(t, cellsOf(b, obs)))
	})
	e, got := runFeed(t, nil, func(e *testEnv, b netmodel.Bucket, obs []trace.Observation) {
		cells := cellsOf(b, obs)
		if b == hostile {
			// A second cell for agent 3's last quartet inside agent 3's own
			// partial, and a fifth agent claiming agent 0's first.
			own := cells[len(cells)-1]
			own.MeanRTT, own.Samples = 4*own.MeanRTT, own.Samples+50
			other := cells[0]
			other.Agent, other.MeanRTT, other.Samples = 4, 3*other.MeanRTT, other.Samples+50
			cells = append(cells, own, other)
		}
		e.mustPost(t, "/v1/aggregates", cellBody(t, cells))
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("colliding cells changed the reports: %d vs %d canonical bytes", len(got), len(want))
	}
	counters, _ := e.metricsSnapshot(t)
	if n := counters["ingest.quarantine.duplicate"]; n != 2 {
		t.Fatalf("ingest.quarantine.duplicate = %d, want the 2 intruding cells", n)
	}
	if q := e.srv.Pipeline().Quarantine(); q.Total() != 2 {
		t.Fatalf("pipeline quarantine total = %d (%s), want 2", q.Total(), q)
	}
}

// TestAggregateFeedJournaledOnce reads back the log of a daemon fed only
// through /v1/aggregates: each cell is journaled once on arrival, in an
// agg-batch record, and once on consumption, in its bucket's record — no
// batch record restates it in between.
func TestAggregateFeedJournaledOnce(t *testing.T) {
	dir := t.TempDir()
	wcfg := wal.Config{Fsync: wal.SyncOff, Meta: "journaled-once"}
	posted := 0
	runFeed(t, func(c *Config) {
		c.WarmupBuckets = 0 // every bucket is read: none discarded unjournaled
		c.DataDir = dir
		c.WAL = wcfg
		c.CompactEveryReports = -1 // keep every record for the read-back
	}, func(e *testEnv, b netmodel.Bucket, obs []trace.Observation) {
		e.mustPost(t, "/v1/aggregates", aggBody(t, quarterPartials(b, obs)...))
		posted += len(obs)
	})
	lg, rec, err := wal.Open(dir, wcfg)
	if err != nil {
		t.Fatalf("reading the journal back: %v", err)
	}
	defer lg.Close()
	// An open decodes only the batches the reads left unsettled: the
	// accepted family alone, with no reads to settle it, decodes whole.
	accDir := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "accepted-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no accepted segments in %s (err %v)", dir, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(accDir, filepath.Base(seg)), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	accLog, acc, err := wal.Open(accDir, wcfg)
	if err != nil {
		t.Fatalf("reading the accepted family back: %v", err)
	}
	defer accLog.Close()
	arrived, consumed := 0, 0
	for _, batch := range acc.Batches {
		if len(batch.Obs) > 0 {
			t.Fatalf("the aggregate feed journaled a raw batch record (%d observations)", len(batch.Obs))
		}
		arrived += len(batch.Cells)
	}
	for _, bs := range rec.Buckets {
		consumed += len(bs.Obs)
	}
	if arrived != posted || consumed != posted {
		t.Fatalf("journal holds %d arrived and %d consumed cells for %d posted", arrived, consumed, posted)
	}
}
