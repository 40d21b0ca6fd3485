// Command blameit-bench is the perf-trajectory harness: it runs the
// repository's headline performance workloads through testing.Benchmark and
// emits one schema-stable JSON document (BENCH_<date>.json) pinning the
// numbers a regression would move — ingestion throughput per source,
// quartet classification rate, Algorithm 1 job wall time, per-record bytes
// and allocations, and the store's resident-window / scan accounting.
//
// Usage:
//
//	blameit-bench [-o FILE] [-date YYYY-MM-DD] [-benchtime 3x]
//
// The output embeds the measured pre-optimization baseline (recorded when
// the harness was introduced) so every emitted file carries its own
// reference point: compare `ingest.stream_replay.records_per_sec` against
// `baseline.stream_replay_records_per_sec` to see the trajectory without
// digging through git history. CI runs this on every push and uploads the
// file as an artifact; `make bench-json` is the local entry point.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"blameit/internal/bgp"
	"blameit/internal/chaos"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/fleet"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/stats"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump only when a field
// is removed or changes meaning; additions are backward-compatible.
const SchemaVersion = 1

const benchSeed = 42

// Baseline is the pre-optimization reference measured on the CI container
// when the harness was introduced (same seed, same small-scale world, same
// half-day workloads), before the alloc-free JSONL decode, the
// struct-of-arrays store merge, and the incremental window aggregation
// landed. It ships inside every emitted file so a single BENCH document
// carries both ends of the trajectory.
type Baseline struct {
	RecordedAt                string  `json:"recorded_at"`
	StreamReplayRecordsPerSec float64 `json:"stream_replay_records_per_sec"`
	StreamReplayAllocsPerRec  float64 `json:"stream_replay_allocs_per_record"`
	StoreBackedRecordsPerSec  float64 `json:"store_backed_records_per_sec"`
	LiveSimRecordsPerSec      float64 `json:"live_sim_records_per_sec"`
	Algorithm1JobWallMS       float64 `json:"algorithm1_job_wall_ms"`
	PipelineDayWallMS         float64 `json:"pipeline_day_wall_ms"`
}

// baseline holds the numbers measured immediately before the optimization
// PR (see DESIGN.md §11 for the methodology).
var baseline = Baseline{
	RecordedAt:                "2026-08-08",
	StreamReplayRecordsPerSec: 426_000,
	StreamReplayAllocsPerRec:  7.0,
	StoreBackedRecordsPerSec:  736_000,
	LiveSimRecordsPerSec:      1_388_000,
	Algorithm1JobWallMS:       2.288,
	PipelineDayWallMS:         1664,
}

// IngestResult is one ingestion source's measured throughput.
type IngestResult struct {
	Records         int64   `json:"records"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	NSPerRecord     float64 `json:"ns_per_record"`
	BytesPerRecord  float64 `json:"bytes_per_record,omitempty"` // heap bytes allocated
	AllocsPerRecord float64 `json:"allocs_per_record"`
	MBPerSec        float64 `json:"mb_per_sec,omitempty"` // input bytes decoded (stream replay only)
}

// StoreStats is the trace store's accounting after the store-backed drain.
type StoreStats struct {
	PeakResidentWindows int `json:"peak_resident_windows"`
	EvictedWindows      int `json:"evicted_windows"`
	ScannedBuckets      int `json:"scanned_buckets"`
	ScannedRecords      int `json:"scanned_records"`
}

// JobStats summarizes the per-job wall times of the pipeline-day run via a
// bounded-memory streaming summary (no per-job samples are retained).
type JobStats struct {
	Jobs   int     `json:"jobs"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Doc is the emitted document.
type Doc struct {
	SchemaVersion int    `json:"schema_version"`
	Date          string `json:"date"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	Seed          int64  `json:"seed"`
	Scale         string `json:"scale"`

	Ingest struct {
		LiveSim      IngestResult `json:"live_sim"`
		StoreBacked  IngestResult `json:"store_backed"`
		StreamReplay IngestResult `json:"stream_replay"`
	} `json:"ingest"`
	Store StoreStats `json:"store"`

	ClassifyQuartetsPerSec float64  `json:"classify_quartets_per_sec"`
	Algorithm1JobWallMS    float64  `json:"algorithm1_job_wall_ms"`
	Algorithm1Quartets     int      `json:"algorithm1_quartets"`
	PipelineDayWallMS      float64  `json:"pipeline_day_wall_ms"`
	PipelineJobs           JobStats `json:"pipeline_jobs"`

	// AggregateMerge pins the edge-aggregation fold: one loaded bucket's
	// per-agent partials merged into a recycled aggregate and flattened
	// back to cells, the collector's per-bucket hot path.
	AggregateMerge struct {
		Partials       int     `json:"partials"`
		Cells          int     `json:"cells"`
		MergesPerSec   float64 `json:"merges_per_sec"`
		NSPerMerge     float64 `json:"ns_per_merge"`
		AllocsPerMerge float64 `json:"allocs_per_merge"`
	} `json:"aggregate_merge"`
	// FleetDayWallMS is PipelineDayWallMS's counterpart with the feed
	// routed through a FleetAgents-strong edge fleet (perfect delivery):
	// the end-to-end cost of pre-aggregating at the edge.
	FleetDayWallMS float64 `json:"fleet_day_wall_ms"`
	FleetAgents    int     `json:"fleet_agents"`

	Baseline Baseline `json:"baseline"`
}

func benchSim() *sim.Simulator {
	w := topology.Generate(topology.SmallScale(), benchSeed)
	horizon := netmodel.Bucket(netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, benchSeed+2)
	return sim.New(w, tbl, faults.NewSchedule(nil), sim.DefaultConfig(benchSeed+3))
}

// drain reads half a day of buckets through a source, returning the record
// count.
func drain(b *testing.B, mk func() ingest.ObservationSource) int64 {
	ctx := context.Background()
	horizon := netmodel.Bucket(netmodel.BucketsPerDay / 2)
	var records int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := mk()
		var buf []trace.Observation
		records = 0
		for bk := netmodel.Bucket(0); bk < horizon; bk++ {
			var err error
			buf, err = src.ObservationsAt(ctx, bk, buf[:0])
			if err != nil {
				b.Fatal(err)
			}
			records += int64(len(buf))
		}
	}
	return records
}

// measureDrain benchmarks one source constructor and converts the result
// into per-record terms.
func measureDrain(mk func() ingest.ObservationSource) IngestResult {
	var records int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		records = drain(b, mk)
	})
	perOp := float64(r.NsPerOp())
	var out IngestResult
	out.Records = records
	if perOp > 0 {
		out.RecordsPerSec = float64(records) / (perOp / 1e9)
	}
	if records > 0 {
		out.NSPerRecord = perOp / float64(records)
		out.BytesPerRecord = float64(r.AllocedBytesPerOp()) / float64(records)
		out.AllocsPerRecord = float64(r.AllocsPerOp()) / float64(records)
	}
	return out
}

func main() {
	var (
		outPath = flag.String("o", "", "output file (default stdout)")
		date    = flag.String("date", time.Now().UTC().Format("2006-01-02"), "date stamp for the document")
	)
	flag.Parse()

	var doc Doc
	doc.SchemaVersion = SchemaVersion
	doc.Date = *date
	doc.GoVersion = runtime.Version()
	doc.GOOS = runtime.GOOS
	doc.GOARCH = runtime.GOARCH
	doc.NumCPU = runtime.NumCPU()
	doc.Seed = benchSeed
	doc.Scale = "small"
	doc.Baseline = baseline

	// Ingestion: live generation (zero-storage upper bound).
	s := benchSim()
	fmt.Fprintln(os.Stderr, "bench: ingest live_sim")
	doc.Ingest.LiveSim = measureDrain(func() ingest.ObservationSource {
		return ingest.NewSimSource(s)
	})

	// Ingestion: the §6.1 store-backed scan path, keeping the last store for
	// its resident-window and scan accounting.
	fmt.Fprintln(os.Stderr, "bench: ingest store_backed")
	doc.Ingest.StoreBacked = measureDrain(func() ingest.ObservationSource {
		st := trace.NewStore(8)
		st.SetRetention(pipeline.SimDepsRetention)
		return ingest.NewStoreIngest(ingest.NewSimSource(s), st)
	})
	// Accounting drain (untimed): sample resident windows per bucket so the
	// reported peak is the true high-water mark, not the end-of-run state.
	{
		st := trace.NewStore(8)
		st.SetRetention(pipeline.SimDepsRetention)
		src := ingest.NewStoreIngest(ingest.NewSimSource(s), st)
		peak := 0
		var buf []trace.Observation
		for bk := netmodel.Bucket(0); bk < netmodel.Bucket(netmodel.BucketsPerDay/2); bk++ {
			var err error
			buf, err = src.ObservationsAt(context.Background(), bk, buf[:0])
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			if n := st.NumWindows(); n > peak {
				peak = n
			}
		}
		doc.Store = StoreStats{
			PeakResidentWindows: peak,
			EvictedWindows:      st.EvictedWindows(),
			ScannedBuckets:      st.ScannedBuckets(),
			ScannedRecords:      st.ScannedRecords(),
		}
	}

	// Ingestion: streaming JSONL replay (decode-bound).
	fmt.Fprintln(os.Stderr, "bench: ingest stream_replay")
	var file bytes.Buffer
	var buf []trace.Observation
	for bk := netmodel.Bucket(0); bk < netmodel.Bucket(netmodel.BucketsPerDay/2); bk++ {
		buf = s.ObservationsAt(bk, buf[:0])
		if err := trace.WriteJSONL(&file, buf); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	raw := file.Bytes()
	doc.Ingest.StreamReplay = measureDrain(func() ingest.ObservationSource {
		return ingest.NewStreamSource(bytes.NewReader(raw))
	})
	if ns := doc.Ingest.StreamReplay.NSPerRecord * float64(doc.Ingest.StreamReplay.Records); ns > 0 {
		doc.Ingest.StreamReplay.MBPerSec = float64(len(raw)) / (ns / 1e9) / (1 << 20)
	}

	// Quartet classification rate.
	fmt.Fprintln(os.Stderr, "bench: classify")
	o := trace.Observation{Prefix: 1, Cloud: 2, Samples: 30, MeanRTT: 55}
	var sink quartet.Quartet
	rc := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = quartet.Classify(o, 50)
		}
	})
	_ = sink
	// float division (not integer NsPerOp) keeps sub-ns ops meaningful.
	if rc.N > 0 && rc.T > 0 {
		doc.ClassifyQuartetsPerSec = float64(rc.N) / rc.T.Seconds()
	}

	// One Algorithm 1 pass over a loaded bucket's quartets.
	fmt.Fprintln(os.Stderr, "bench: algorithm1")
	qb := netmodel.Bucket(20 * netmodel.BucketsPerHour)
	buf = s.ObservationsAt(qb, buf[:0])
	qs := make([]quartet.Quartet, 0, len(buf))
	for _, ob := range buf {
		qs = append(qs, quartet.Classify(ob, s.World.TargetFor(ob.Prefix, ob.Cloud)))
	}
	loc := core.NewLocalizer(core.DefaultConfig(), s.World.CloudASN(),
		func(p netmodel.PrefixID, c netmodel.CloudID, bb netmodel.Bucket) netmodel.Path {
			return s.Routes.PathAtForPrefix(c, p, bb)
		}, nil)
	ra := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loc.Localize(qs)
		}
	})
	doc.Algorithm1JobWallMS = float64(ra.NsPerOp()) / 1e6
	doc.Algorithm1Quartets = len(qs)

	// Aggregate merge: fold the same loaded bucket's per-agent partials
	// into a recycled aggregate, as the collector does every bucket.
	fmt.Fprintln(os.Stderr, "bench: aggregate merge")
	const benchAgents = 16
	fl := fleet.New(s, benchAgents)
	parts := make([]*quartet.Partial, 0, benchAgents)
	cellCount := 0
	for _, ag := range fl.Agents {
		part := ag.Collect(qb)
		parts = append(parts, part)
		cellCount += len(part.Cells)
	}
	agg := quartet.NewAggregate(qb)
	rm := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			agg.Reset(qb)
			for _, part := range parts {
				agg.Add(part)
			}
			_ = agg.Cells()
		}
	})
	doc.AggregateMerge.Partials = len(parts)
	doc.AggregateMerge.Cells = cellCount
	if perOp := float64(rm.NsPerOp()); perOp > 0 && len(parts) > 0 {
		doc.AggregateMerge.MergesPerSec = float64(len(parts)) / (perOp / 1e9)
		doc.AggregateMerge.NSPerMerge = perOp / float64(len(parts))
		doc.AggregateMerge.AllocsPerMerge = float64(rm.AllocsPerOp()) / float64(len(parts))
	}

	// Full pipeline day (warmup day + evaluated day), with per-job wall
	// times folded into a bounded-memory streaming summary.
	fmt.Fprintln(os.Stderr, "bench: pipeline day")
	js := stats.NewStreamingSummary()
	start := time.Now()
	p := pipeline.NewSim(benchSim(), pipeline.DefaultConfig())
	if err := p.Warmup(0, netmodel.BucketsPerDay); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var lastJob = time.Now()
	err := p.Run(netmodel.BucketsPerDay, 2*netmodel.BucketsPerDay, func(rep *pipeline.Report) {
		now := time.Now()
		js.Add(float64(now.Sub(lastJob)) / 1e6)
		lastJob = now
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	doc.PipelineDayWallMS = float64(time.Since(start)) / 1e6
	sum := js.Summary()
	doc.PipelineJobs = JobStats{
		Jobs: sum.N, MeanMS: sum.Mean, P50MS: sum.P50, P90MS: sum.P90, MaxMS: sum.Max,
	}

	// The same day with the feed routed through an edge fleet: the
	// delta against pipeline_day_wall_ms is the aggregation overhead.
	fmt.Fprintln(os.Stderr, "bench: fleet day")
	fsim := benchSim()
	fcfg := pipeline.DefaultConfig()
	fstart := time.Now()
	fp := pipeline.New(pipeline.Deps{
		World:  fsim.World,
		Table:  fsim.Routes,
		Source: fleet.NewCollector(fleet.New(fsim, benchAgents), chaos.Config{Seed: 1}),
		Prober: probe.NewEngine(fsim, fcfg.ProbeNoiseMS),
	}, fcfg)
	if err := fp.Warmup(0, netmodel.BucketsPerDay); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := fp.Run(netmodel.BucketsPerDay, 2*netmodel.BucketsPerDay, func(rep *pipeline.Report) {}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	doc.FleetDayWallMS = float64(time.Since(fstart)) / 1e6
	doc.FleetAgents = benchAgents

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *outPath)
}
