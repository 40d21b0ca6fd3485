//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"blameit/internal/fleet"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/quartet"
	"blameit/internal/server"
	"blameit/internal/trace"
	"blameit/internal/wal"
)

// The layer measurements call one layer's public functions from outside,
// on a third of a day of the trace, and time the call. They cover what
// the chain's spans do not: the layers the raw in-memory service path
// never enters (the aggregate wire, the merge, the fleet edge), the
// daemon's own frontend run in-process, and the journal under the fsync
// policies the daemon is not started with.

// layerBuckets is how much of the trace one layer measurement replays.
const layerBuckets = dayBuckets / 3

// measure times fn and counts the heap allocations made while it ran.
func measure(fn func()) (ns, allocs float64) {
	before := mallocs()
	start := time.Now()
	fn()
	ns = float64(time.Since(start).Nanoseconds())
	return ns, float64(mallocs() - before)
}

// layerInputs are the decoded and encoded forms of the measured buckets.
type layerInputs struct {
	rawBodies, aggBodies [][]byte
	obs                  [][]trace.Observation
	cells                [][]ingest.AggCell
	records, ncells      float64
}

func loadLayerInputs(raw, agg *feed) (*layerInputs, error) {
	in := &layerInputs{}
	first := warmupDays * dayBuckets
	for i := 0; i < layerBuckets; i++ {
		rb, ab := raw.body(first+i), agg.body(i)
		obs, err := ingest.DecodeBatch(rb, nil, nil)
		if err != nil {
			return nil, err
		}
		cells, err := ingest.DecodeAggBatch(ab, nil, nil)
		if err != nil {
			return nil, err
		}
		in.rawBodies, in.aggBodies = append(in.rawBodies, rb), append(in.aggBodies, ab)
		in.obs, in.cells = append(in.obs, obs), append(in.cells, cells)
		in.records += float64(len(obs))
		in.ncells += float64(len(cells))
	}
	return in, nil
}

// layers carries what the layer measurements share and collects their
// metrics by name.
type layers struct {
	wd  *world
	in  *layerInputs
	raw *feed
	dir string // scratch directory for journals
	m   map[string]float64
}

// runLayers measures every layer and returns the metrics by name.
func runLayers(ctx context.Context, wd *world, raw, agg *feed, dir string) (map[string]float64, error) {
	in, err := loadLayerInputs(raw, agg)
	if err != nil {
		return nil, err
	}
	l := &layers{wd: wd, in: in, raw: raw, dir: dir, m: make(map[string]float64)}
	for _, measureLayer := range []func(context.Context) error{
		l.ingest, l.quartet, l.fleet, l.wal, l.pipeline, l.server, l.serverAggregates, l.serverRecover,
	} {
		if err := measureLayer(ctx); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

func (l *layers) ingest(context.Context) error {
	in, wd, m := l.in, l.wd, l.m
	var cells []ingest.AggCell
	var err error
	ns, allocs := measure(func() {
		for _, body := range in.aggBodies {
			if cells, err = ingest.DecodeAggBatch(body, cells[:0], nil); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["ingest.decode_agg_ns_per_cell"] = ns / in.ncells
	m["ingest.decode_agg_allocs_per_cell"] = allocs / in.ncells

	// Filter compacts in place, so it gets copies.
	copies := make([][]trace.Observation, len(in.obs))
	for i, obs := range in.obs {
		copies[i] = append([]trace.Observation(nil), obs...)
	}
	q := ingest.NewQuarantine(netmodel.PrefixID(len(wd.w.Prefixes)), len(wd.w.Clouds))
	first := warmupDays * dayBuckets
	ns, _ = measure(func() {
		for i, obs := range copies {
			q.Filter(netmodel.Bucket(first+i), obs)
		}
	})
	if q.Total() != 0 {
		return fmt.Errorf("quarantine rejected %d records of a clean trace", q.Total())
	}
	m["ingest.quarantine_filter_ns_per_record"] = ns / in.records
	return nil
}

// quartet measures the aggregate feed's merge as the daemon runs it:
// cells regrouped into partials and added to the bucket's aggregate, the
// canonical fold, and the un-merge back into observations.
func (l *layers) quartet(context.Context) error {
	in, m := l.in, l.m
	aggs := make([]*quartet.Aggregate, len(in.cells))
	partials := 0
	ns, _ := measure(func() {
		for i, cells := range in.cells {
			agg := quartet.NewAggregate(cells[0].Bucket)
			var p *quartet.Partial
			for _, c := range cells {
				if p == nil || p.ID != c.ID() {
					if p != nil {
						agg.Add(p)
					}
					p = quartet.NewPartial(c.ID(), c.Bucket)
					partials++
				}
				p.Observe(c.Observation())
			}
			agg.Add(p)
			aggs[i] = agg
		}
	})
	m["quartet.merge_ns_per_partial"] = ns / float64(partials)
	folded := 0
	ns, _ = measure(func() {
		for _, agg := range aggs {
			folded += len(agg.Cells())
		}
	})
	if float64(folded) != in.ncells {
		return fmt.Errorf("merged aggregates hold %d cells, the wire carried %.0f", folded, in.ncells)
	}
	m["quartet.cells_ns_per_cell"] = ns / in.ncells
	var obs []trace.Observation
	ns, _ = measure(func() {
		for _, agg := range aggs {
			obs = agg.Observations(obs[:0])
		}
	})
	m["quartet.observations_ns_per_cell"] = ns / in.ncells
	return nil
}

func (l *layers) fleet(context.Context) error {
	wd, m := l.wd, l.m
	fl := fleet.New(wd.sim, fleetAgents)
	cells := 0
	ns, _ := measure(func() {
		for b := 0; b < layerBuckets/4; b++ {
			for _, ag := range fl.Agents {
				cells += len(ag.Collect(netmodel.Bucket(b)).Cells)
			}
		}
	})
	m["fleet.collect_ns_per_record"] = ns / float64(cells)
	return nil
}

// wal feeds standalone journals the batches a daemon would: under each
// fsync policy the daemon is not started with, and then — the policy no
// longer mattering — the aggregate batches, explicit syncs, and a reopen.
func (l *layers) wal(context.Context) error {
	in, m := l.in, l.m
	appendBatches := func(policy wal.Policy) (*wal.Log, string, error) {
		dir := filepath.Join(l.dir, "wal-"+string(policy))
		lg, _, err := wal.Open(dir, wal.Config{Fsync: policy})
		if err != nil {
			return nil, "", err
		}
		ns, _ := measure(func() {
			for _, obs := range in.obs {
				if err = lg.AppendBatch(obs); err != nil {
					return
				}
			}
		})
		m["wal.append_batch_ns_per_record."+string(policy)] = ns / in.records
		if err != nil {
			lg.Close()
			return nil, "", err
		}
		return lg, dir, nil
	}
	lg, _, err := appendBatches(wal.SyncAlways)
	if err != nil {
		return err
	}
	if err := lg.Close(); err != nil {
		return err
	}
	lg, dir, err := appendBatches(wal.SyncOff)
	if err != nil {
		return err
	}
	defer lg.Close()

	bytes0 := lg.Stats().AppendedBytes
	ns, _ := measure(func() {
		for _, cells := range in.cells {
			if err = lg.AppendAggBatch(cells); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["wal.append_agg_ns_per_cell"] = ns / in.ncells
	m["wal.appended_bytes_per_cell"] = float64(lg.Stats().AppendedBytes-bytes0) / in.ncells

	// One sync per journaled batch: what -fsync always pays on top of
	// the write.
	const syncs = 16
	var syncNS float64
	for _, obs := range in.obs[:syncs] {
		if err := lg.AppendBatch(obs); err != nil {
			return err
		}
		ns, _ := measure(func() { err = lg.Sync() })
		if err != nil {
			return err
		}
		syncNS += ns
	}
	m["wal.sync_us"] = syncNS / syncs / 1e3

	if err := lg.Close(); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	var reopened *wal.Log
	ns, _ = measure(func() { reopened, _, err = wal.Open(dir, wal.Config{Fsync: wal.SyncOff}) })
	if err != nil {
		return err
	}
	m["wal.open_ms_per_mb"] = ns / 1e6 / (float64(size) / (1 << 20))
	return reopened.Close()
}

// pipeline answers the -workers question: the same warm-up and
// third of a day through a pipeline of its own, at one and at two
// workers.
func (l *layers) pipeline(ctx context.Context) error {
	wd, raw, m := l.wd, l.raw, l.m
	for _, workers := range []int{1, 2} {
		cfg := pipelineConfig(workers)
		deps := wd.deps(cfg)
		deps.Source = &chainSource{raw: raw, loaded: -1}
		p := pipeline.New(deps, cfg)
		first := warmupDays * dayBuckets
		if err := p.WarmupContext(ctx, 0, netmodel.Bucket(first)); err != nil {
			return err
		}
		var jobs []float64
		for b := first; b < first+layerBuckets; b++ {
			start := time.Now()
			rep, err := p.StepContext(ctx, netmodel.Bucket(b))
			if err != nil {
				return err
			}
			if rep != nil {
				jobs = append(jobs, ms(time.Since(start)))
			}
		}
		m[fmt.Sprintf("pipeline.job_ms_p50.workers%d", workers)] = median(jobs)
	}
	return nil
}

// serve runs one request through an in-process server's handler.
func serve(h http.Handler, method, path string, body []byte) (int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		return rec.Code, fmt.Errorf("in-process %s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Code, nil
}

func newServer(wd *world, mutate func(*server.Config)) (*server.Server, error) {
	cfg := server.Config{Pipeline: pipelineConfig(0), WarmupBuckets: netmodel.Bucket(warmupDays * dayBuckets)}
	mutate(&cfg)
	return server.New(wd.deps(cfg.Pipeline), cfg)
}

// awaitReports waits until the in-process server has published n reports.
func awaitReports(ctx context.Context, srv *server.Server, n int64) error {
	for srv.Reports() < n {
		if err := srv.Err(); err != nil {
			return err
		}
		if !sleepCtx(ctx, time.Millisecond) {
			return fmt.Errorf("in-process server published %d of %d reports: %w", srv.Reports(), n, ctx.Err())
		}
	}
	return nil
}

// server measures the frontend's handlers with no listener. The
// server seals manually, so while ingest is timed the backend is idle and
// the handler's cost — body read, decode, queue push — stands alone.
func (l *layers) server(ctx context.Context) error {
	wd, in, raw, m := l.wd, l.in, l.raw, l.m
	var srv *server.Server
	var err error
	ns, _ := measure(func() { srv, err = newServer(wd, func(c *server.Config) { c.ManualSeal = true }) })
	if err != nil {
		return err
	}
	m["server.new_ms"] = ns / 1e6
	h := srv.Handler()
	first := warmupDays * dayBuckets
	for b := 0; b < first; b++ {
		if _, err := serve(h, http.MethodPost, "/v1/ingest", raw.body(b)); err != nil {
			return err
		}
	}
	handleNS, allocs := measure(func() {
		for _, body := range in.rawBodies {
			if _, err = serve(h, http.MethodPost, "/v1/ingest", body); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var obs []trace.Observation
	decodeNS, _ := measure(func() {
		for _, body := range in.rawBodies {
			obs, _ = ingest.DecodeBatch(body, obs[:0], nil)
		}
	})
	m["server.handle_ingest_ns_per_record"] = handleNS / in.records
	m["server.handle_ingest_allocs_per_record"] = allocs / in.records
	m["server.push_self_ns_per_record"] = (handleNS - decodeNS) / in.records

	last := first + layerBuckets - 1
	ns, _ = measure(func() { _, err = serve(h, http.MethodPost, "/v1/seal", []byte(fmt.Sprintf(`{"through":%d}`, last))) })
	if err != nil {
		return err
	}
	m["server.handle_seal_us"] = ns / 1e3
	if err := awaitReports(ctx, srv, int64(layerBuckets/jobEvery)); err != nil {
		return err
	}
	const reads = 200
	for name, path := range map[string]string{
		"server.read_report_us":   fmt.Sprintf("/v1/reports/%d", last),
		"server.read_verdicts_us": fmt.Sprintf("/v1/verdicts?since=%d", last-verdictLookback),
		"server.read_index_us":    "/v1/reports",
		"server.healthz_us":       "/healthz",
		"server.metrics_us":       "/metrics",
	} {
		ns, _ := measure(func() {
			for i := 0; i < reads; i++ {
				if _, err = serve(h, http.MethodGet, path, nil); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		m[name] = ns / reads / 1e3
	}
	ns, _ = measure(func() { err = srv.Shutdown(ctx) })
	m["server.shutdown_ms"] = ns / 1e6
	return err
}

func (l *layers) serverAggregates(ctx context.Context) error {
	wd, in, m := l.wd, l.in, l.m
	srv, err := newServer(wd, func(c *server.Config) { c.ManualSeal = true })
	if err != nil {
		return err
	}
	h := srv.Handler()
	ns, _ := measure(func() {
		for _, body := range in.aggBodies {
			if _, err = serve(h, http.MethodPost, "/v1/aggregates", body); err != nil {
				return
			}
		}
	})
	m["server.handle_aggregates_ns_per_cell"] = ns / in.ncells
	// Nothing here is worth draining: stop the backend hard.
	stopped, cancel := context.WithCancel(ctx)
	cancel()
	_ = srv.Shutdown(stopped)
	return err
}

// serverRecover journals the warm-up day and the measured buckets
// through an in-process server, shuts it down, and times a second server
// opening the same directory: recovery is server.New not returning until
// the journal has been replayed.
func (l *layers) serverRecover(ctx context.Context) error {
	wd, raw, dir, m := l.wd, l.raw, l.dir, l.m
	withDir := func(c *server.Config) { c.DataDir = filepath.Join(dir, "server-wal") }
	srv, err := newServer(wd, withDir)
	if err != nil {
		return err
	}
	h := srv.Handler()
	end := warmupDays*dayBuckets + layerBuckets
	for b := 0; b < end; b++ {
		if _, err := serve(h, http.MethodPost, "/v1/ingest", raw.body(b)); err != nil {
			return err
		}
	}
	if _, err := serve(h, http.MethodPost, "/v1/seal", []byte(fmt.Sprintf(`{"through":%d}`, end-1))); err != nil {
		return err
	}
	if err := awaitReports(ctx, srv, int64(layerBuckets/jobEvery)); err != nil {
		return err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	ns, _ := measure(func() { srv, err = newServer(wd, withDir) })
	if err != nil {
		return err
	}
	if wh := srv.WALHealth(); wh.RecoveryInconsistent > 0 || wh.Degraded {
		return fmt.Errorf("in-process recovery: inconsistent=%d degraded=%v", wh.RecoveryInconsistent, wh.Degraded)
	}
	m["server.recover_ms_per_day"] = ns / 1e6 / (float64(end) / dayBuckets)
	return srv.Shutdown(ctx)
}
