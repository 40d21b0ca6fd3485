//go:build linux

package main

import (
	"context"
	"fmt"
	"runtime"

	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/server"
	"blameit/internal/trace"
	"blameit/internal/wal"
)

// The chain replays the encoded trace in one goroutine through each
// layer's public functions, in the order the daemon's service path runs
// them: decode the request body, journal the batch and the consumed
// bucket, step the pipeline, and on job buckets render the canonical
// report and journal it, compacting the journal on the daemon's cadence.
// Its reports are the byte-identity reference every daemon run is held
// to. With a tracer it also records a span around every call, which is
// where the per-layer time budget comes from; the journal stages run
// only then, because the reference does not need them.

// chainResult is what one chain replay produced.
type chainResult struct {
	// reports maps a job window's last bucket to the report's canonical
	// JSON, newline-terminated as GET /v1/reports/{bucket} serves it.
	reports map[int][]byte

	// The rest is filled only when traced.
	decodeAllocs, decodeRecords int64
	decodeBytes                 int64
	stepAllocs, stepRecords     int64
	stepMS, jobMS               []float64 // pipeline.step durations off and on the job cadence
	reportBytes                 int64
	walBatchBytes               int64 // journal bytes of the AppendBatch calls
	compactMS, compactMB        []float64
	registry                    *metrics.Registry
}

// chainSource hands the pipeline the bucket the chain just decoded. In
// warm-up the pipeline pulls buckets itself, so a bucket that was not
// loaded ahead of the read is loaded by the read.
type chainSource struct {
	raw    *feed
	tr     *tracer
	log    *wal.Log
	res    *chainResult
	parent int // span the next load is caused by

	obs    []trace.Observation
	loaded int
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// load decodes bucket b's request body and, when traced, journals it as
// the daemon's queue does: the accepted batch, then the consumed bucket.
func (s *chainSource) load(b int) error {
	body := s.raw.body(b)
	var before int64
	var err error
	if s.tr != nil {
		before = mallocs()
	}
	id := s.tr.start("ingest.decode", s.parent, windowOf(b))
	s.obs, err = ingest.DecodeBatch(body, s.obs[:0], nil)
	s.tr.end(id)
	if err != nil {
		return err
	}
	s.loaded = b
	if s.tr == nil {
		return nil
	}
	s.res.decodeAllocs += mallocs() - before
	s.res.decodeRecords += int64(len(s.obs))
	s.res.decodeBytes += int64(len(body))

	bytes0 := s.log.Stats().AppendedBytes
	id = s.tr.start("wal.append_batch", s.parent, windowOf(b))
	err = s.log.AppendBatch(s.obs)
	s.tr.end(id)
	if err != nil {
		return err
	}
	s.res.walBatchBytes += s.log.Stats().AppendedBytes - bytes0
	id = s.tr.start("wal.append_bucket", s.parent, windowOf(b))
	err = s.log.AppendBucket(netmodel.Bucket(b), s.obs)
	s.tr.end(id)
	return err
}

func (s *chainSource) ObservationsAt(_ context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	if s.loaded != int(b) {
		if err := s.load(int(b)); err != nil {
			return buf, err
		}
	}
	return append(buf, s.obs...), nil
}

// windowOf is the identifier spans of one job window share: the window's
// last bucket.
func windowOf(b int) int { return b - b%jobEvery + jobEvery - 1 }

// runChain replays buckets [0, n) of the raw feed. walDir is where the
// traced replay keeps its journal.
func runChain(ctx context.Context, wd *world, raw *feed, n int, tr *tracer, walDir string) (*chainResult, error) {
	cfg := pipelineConfig(0)
	res := &chainResult{reports: make(map[int][]byte), registry: metrics.NewRegistry()}
	cfg.Metrics = res.registry
	src := &chainSource{raw: raw, tr: tr, res: res, loaded: -1}
	if tr != nil {
		lg, _, err := wal.Open(walDir, wal.Config{})
		if err != nil {
			return nil, err
		}
		defer lg.Close()
		src.log = lg
	}
	deps := wd.deps(cfg)
	deps.Source = src
	p := pipeline.New(deps, cfg)

	warm := warmupDays * dayBuckets
	src.parent = tr.start("pipeline.warmup", 0, warm-1)
	err := p.WarmupContext(ctx, 0, netmodel.Bucket(warm))
	tr.end(src.parent)
	if err != nil {
		return nil, fmt.Errorf("chain warm-up: %w", err)
	}

	sinceCompact := 0
	for b := warm; b < n; b++ {
		win := windowOf(b)
		root := tr.start("chain.bucket", 0, win)
		src.parent = root
		if err := src.load(b); err != nil {
			return nil, err
		}
		var before int64
		if tr != nil {
			before = mallocs()
		}
		id := tr.start("pipeline.step", root, win)
		rep, err := p.StepContext(ctx, netmodel.Bucket(b))
		stepMS := float64(tr.end(id)) / 1e6
		if err != nil {
			return nil, fmt.Errorf("chain step %d: %w", b, err)
		}
		if tr != nil {
			res.stepAllocs += mallocs() - before
			res.stepRecords += int64(len(src.obs))
			if rep != nil {
				res.jobMS = append(res.jobMS, stepMS)
			} else {
				res.stepMS = append(res.stepMS, stepMS)
			}
		}
		if rep != nil {
			id = tr.start("pipeline.canonical_json", root, win)
			canonical, err := rep.CanonicalJSON()
			tr.end(id)
			if err != nil {
				return nil, err
			}
			res.reports[int(rep.To)] = append(canonical, '\n')
			if tr != nil {
				res.reportBytes += int64(len(canonical))
				id = tr.start("wal.append_report", root, win)
				err = src.log.AppendReport(wal.Report{Seq: int64(len(res.reports) - 1), From: rep.From, To: rep.To, Canonical: canonical})
				tr.end(id)
				if err != nil {
					return nil, err
				}
				if sinceCompact++; sinceCompact == server.DefaultCompactEveryReports {
					sinceCompact = 0
					size, err := dirBytes(walDir)
					if err != nil {
						return nil, err
					}
					id = tr.start("wal.compact", root, win)
					err = src.log.Compact()
					res.compactMS = append(res.compactMS, float64(tr.end(id))/1e6)
					if err != nil {
						return nil, err
					}
					res.compactMB = append(res.compactMB, float64(size)/(1<<20))
				}
			}
		}
		tr.end(root)
	}
	return res, nil
}
