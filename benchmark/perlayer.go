//go:build linux

package main

import (
	"context"
	"strings"
)

// perLayer assembles the traced run's metrics: the chain's spans and
// counts, the standalone layer measurements, the daemon's own counters
// scraped at the end of the last pass, and the driver's view of itself.
// passes[0] ran untraced and passes[1] with client-side spans.
func perLayer(ctx context.Context, r *runner, wd *world, agg *feed, chain *chainResult, tr *tracer, passes []*passResult, encodeS float64) (map[string]float64, error) {
	m, err := runLayers(ctx, wd, r.raw, agg, r.dir)
	if err != nil {
		return nil, err
	}

	// The chain: self time per span name over the whole replay.
	self := selfByName(tr.snapshot(), func(s span) bool { return !strings.HasPrefix(s.Name, "driver.") })
	ns := func(name string) float64 { return float64(self[name].selfNS) }
	count := func(name string) float64 { return float64(self[name].n) }
	decoded, stepped := float64(chain.decodeRecords), float64(chain.stepRecords)
	m["ingest.decode_ns_per_record"] = ns("ingest.decode") / decoded
	m["ingest.decode_allocs_per_record"] = float64(chain.decodeAllocs) / decoded
	m["ingest.decode_mb_per_s"] = float64(chain.decodeBytes) / 1e6 / (ns("ingest.decode") / 1e9)
	m["wal.append_batch_ns_per_record.interval"] = ns("wal.append_batch") / decoded
	m["wal.append_bucket_ns_per_record"] = ns("wal.append_bucket") / decoded
	m["wal.append_report_us"] = ns("wal.append_report") / count("wal.append_report") / 1e3
	m["wal.appended_bytes_per_record"] = float64(chain.walBatchBytes) / decoded
	m["wal.compact_ms"] = median(chain.compactMS)
	perMB := make([]float64, len(chain.compactMS))
	for i, ms := range chain.compactMS {
		perMB[i] = ms / chain.compactMB[i]
	}
	m["wal.compact_ms_per_mb"] = median(perMB)
	// The warm-up decodes only the buckets it samples; every other decode
	// belongs to a stepped bucket.
	m["pipeline.warmup_ms_per_bucket"] = ns("pipeline.warmup") / 1e6 / (count("ingest.decode") - count("chain.bucket"))
	m["pipeline.step_ms_per_bucket"] = median(chain.stepMS)
	jobs := sorted(chain.jobMS)
	m["pipeline.job_ms_p50"] = percentile(jobs, 50)
	m["pipeline.job_ms_p90"] = percentile(jobs, 90)
	m["pipeline.step_allocs_per_record"] = float64(chain.stepAllocs) / stepped
	m["pipeline.canonical_json_us"] = ns("pipeline.canonical_json") / count("pipeline.canonical_json") / 1e3
	m["pipeline.report_bytes"] = float64(chain.reportBytes) / count("pipeline.canonical_json")

	// The pipeline's own instruments, per timed day.
	snap := chain.registry.Snapshot()
	days := float64(r.wl.timedDays)
	for _, stage := range []string{"collect", "classify", "localize", "active", "alert"} {
		h, _ := snap.Histogram("pipeline.stage." + stage + "_ms")
		m["pipeline.stage."+stage+"_ms"] = h.Sum / days
	}
	var traceroutes int64
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "probe.traceroutes.") {
			traceroutes += c.Value
		}
	}
	localized, _ := snap.Counter("core.quartets.localized")
	denied, _ := snap.Counter("probe.budget.denied")
	m["core.quartets.localized"] = float64(localized)
	m["probe.traceroutes"] = float64(traceroutes)
	m["probe.budget.denied"] = float64(denied)

	// The daemon's counters at the end of the traced pass.
	untraced, traced := passes[0], passes[1]
	for _, name := range []string{
		"server.ingest.batches", "server.ingest.records", "server.ingest.backpressure", "server.reports.published",
		"server.aggregates.partials", "server.aggregates.deduped", "server.aggregates.flushed_records",
	} {
		m[name] = float64(traced.counters[name])
	}
	m["server.queue_depth_max"] = float64(max(untraced.queueDepthMax, traced.queueDepthMax))
	m["server.wal_compactions"] = float64(traced.walCompactions)
	m["server.wal_segments"] = float64(traced.walSegments)
	posted := float64(r.raw.records(0, r.wl.buckets()))
	m["wal.dir_bytes_per_record"] = float64(traced.dirBytes) / posted

	// The driver.
	postMS := sorted(pool(passes, func(p *passResult) []float64 { return p.postMS }))
	reportMS := sorted(pool(passes, func(p *passResult) []float64 { return p.reportMS }))
	tail := tailPercentile(len(reportMS))
	m["driver.post_ms_p50"] = percentile(postMS, 50)
	m["driver.post_ms_max"] = maxOf(postMS)
	m["driver.generator_late_ms_max"] = max(untraced.lateMaxMS, traced.lateMaxMS)
	m["driver.report_latency_tail_pct"] = tail
	m["driver.report_latency_tail_ms"] = percentile(reportMS, tail)
	m["driver.report_latency_max_ms"] = maxOf(reportMS)
	m["driver.read_latency_p50_ms"] = percentile(sorted(pool(passes, func(p *passResult) []float64 { return p.readMS })), 50)
	m["driver.trace_encode_s"] = encodeS
	m["driver.polls"] = float64(traced.polls)

	// Tracing: what the client-side spans cost the daemon, and how much of
	// the daemon's CPU per record the layers' self times account for.
	base := cpuPerMrec(untraced)
	m["trace.overhead_share"] = (cpuPerMrec(traced) - base) / base
	first := warmupDays * dayBuckets
	timed := selfByName(tr.snapshot(), func(s span) bool { return s.Window >= first && !strings.HasPrefix(s.Name, "driver.") })
	var chainNS int64
	for name, t := range timed {
		if name == "chain.bucket" || (!r.wl.wal && strings.HasPrefix(name, "wal.")) {
			continue
		}
		chainNS += t.selfNS
	}
	windows := float64(len(untraced.reportMS))
	readsNS := (float64(untraced.polls)*m["server.read_report_us"] + windows*m["server.read_verdicts_us"]) * 1e3
	attributed := float64(chainNS)/stepped + m["server.push_self_ns_per_record"] + readsNS/float64(untraced.records)
	m["trace.unattributed_cpu_share"] = 1 - attributed/(base*1e3)
	return m, nil
}
