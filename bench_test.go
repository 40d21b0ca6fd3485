// Package bench runs every entry of the experiment registry
// (internal/experiments) as a sub-benchmark of BenchmarkExperiments —
// `go test -bench Experiments -benchtime 1x` reruns the reproduction on the
// small-scale world and reports each entry's headline numbers as custom
// metrics, the same scalars EXPERIMENTS.json pins — beside a few
// micro-benchmarks of the hot paths. The blameit-experiments command prints
// the full tables and series.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/experiments"
	"blameit/internal/faults"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

const benchSeed = 42

var benchParams = experiments.Params{Scale: topology.SmallScale(), Seed: benchSeed}

// BenchmarkExperiments regenerates every registered table, figure and
// ablation, one sub-benchmark each (BenchmarkExperiments/fig13, …).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			var out experiments.Outcome
			for i := 0; i < b.N; i++ {
				out = e.Run(benchParams)
			}
			for _, s := range out.Scalars {
				b.ReportMetric(s.Value, s.Name)
			}
		})
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkObservationGeneration measures the simulator's passive-stream
// throughput (observations per op over one bucket).
func BenchmarkObservationGeneration(b *testing.B) {
	e := benchParams.RandomFaultEnv(1)
	var buf []trace.Observation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.Sim.ObservationsAt(netmodel.Bucket(i%netmodel.BucketsPerDay), buf[:0])
	}
	b.ReportMetric(float64(len(buf)), "observations")
}

// BenchmarkAlgorithm1 measures one Algorithm 1 pass over a bucket's
// quartets.
func BenchmarkAlgorithm1(b *testing.B) {
	e := benchParams.RandomFaultEnv(1)
	qs, _ := e.QuartetsAt(netmodel.Bucket(20*netmodel.BucketsPerHour), nil)
	loc := core.NewLocalizer(core.DefaultConfig(), e.World.CloudASN(),
		func(p netmodel.PrefixID, c netmodel.CloudID, bb netmodel.Bucket) netmodel.Path {
			return e.Table.PathAtForPrefix(c, p, bb)
		}, nil)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(loc.Localize(qs))
	}
	b.ReportMetric(float64(len(qs)), "quartets")
	_ = n
}

// benchPipelineFullDay drives one warmup day plus one full evaluated day
// through a fresh pipeline at the given worker count. The environment is
// built once outside the timer and the simulator's fan-out is flipped per
// run; output is byte-identical at any worker count, so the sequential and
// parallel benchmarks below perform exactly the same work.
func benchPipelineFullDay(b *testing.B, workers int) {
	e := benchParams.RandomFaultEnv(2)
	e.Sim.SetWorkers(workers)
	cfg := pipeline.DefaultConfig()
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := e.NewPipeline(cfg)
		p.Warmup(0, netmodel.BucketsPerDay)
		p.Run(netmodel.BucketsPerDay, 2*netmodel.BucketsPerDay, nil)
	}
}

// BenchmarkPipelineSequential is the single-goroutine reference for the
// full-day pipeline window (Workers=1 everywhere).
func BenchmarkPipelineSequential(b *testing.B) { benchPipelineFullDay(b, 1) }

// BenchmarkPipelineParallel runs the same full-day window with the default
// fan-out (all cores). Compare against BenchmarkPipelineSequential.
func BenchmarkPipelineParallel(b *testing.B) { benchPipelineFullDay(b, 0) }

// BenchmarkSeeded measures building the seeded world every entry point
// starts from (sim.Seeded: topology, faults, BGP table, simulator) at the
// daemon's cold-start sizes. A warm loop reuses the heap, so a fresh
// process pays more; the world.built log event gives that split.
func BenchmarkSeeded(b *testing.B) {
	for _, bc := range []struct {
		scale string
		days  int
	}{{"small", 4}, {"small", 30}, {"large", 30}} {
		b.Run(fmt.Sprintf("%s/%d", bc.scale, bc.days), func(b *testing.B) {
			scale, err := topology.ScaleByName(bc.scale)
			if err != nil {
				b.Fatal(err)
			}
			horizon := netmodel.Bucket(bc.days * netmodel.BucketsPerDay)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Seeded(scale, benchSeed, "random", horizon, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeBatch measures the daemon's JSONL readers over one
// seeded day of the small world, one body per bucket as a producer posts
// it: DecodeBatch on the observation lines /v1/ingest takes, and
// DecodeAggBatch on the same records as the aggregate cells /v1/aggregates
// takes. An op decodes the whole day; ns/record is the per-record cost.
func BenchmarkDecodeBatch(b *testing.B) {
	s, err := sim.Seeded(benchParams.Scale, benchSeed, "random", netmodel.BucketsPerDay, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	var obsBodies, aggBodies [][]byte
	var obs []trace.Observation
	var cells []ingest.AggCell
	records := 0
	for bk := netmodel.Bucket(0); bk < netmodel.BucketsPerDay; bk++ {
		obs = s.ObservationsAt(bk, obs[:0])
		cells = cells[:0]
		for _, o := range obs {
			cells = append(cells, ingest.AggCell{
				Agent: int(o.Prefix) % 16, Seq: int64(bk), Bucket: o.Bucket, Prefix: o.Prefix, Cloud: o.Cloud,
				Device: o.Device, Samples: o.Samples, MeanRTT: o.MeanRTT, Clients: o.Clients,
			})
		}
		var ob, ab bytes.Buffer
		if err := trace.WriteJSONL(&ob, obs); err != nil {
			b.Fatal(err)
		}
		if err := ingest.WriteAggJSONL(&ab, cells); err != nil {
			b.Fatal(err)
		}
		obsBodies, aggBodies = append(obsBodies, ob.Bytes()), append(aggBodies, ab.Bytes())
		records += len(obs)
	}
	run := func(b *testing.B, bodies [][]byte, decode func(body []byte) (int, error)) {
		size := 0
		for _, body := range bodies {
			size += len(body)
		}
		b.SetBytes(int64(size))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, body := range bodies {
				got, err := decode(body)
				if err != nil {
					b.Fatal(err)
				}
				n += got
			}
			if n != records {
				b.Fatalf("decoded %d records of %d", n, records)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	}
	b.Run("observations", func(b *testing.B) {
		var buf []trace.Observation
		run(b, obsBodies, func(body []byte) (n int, err error) {
			buf, err = ingest.DecodeBatch(body, buf[:0], nil)
			return len(buf), err
		})
	})
	b.Run("aggregates", func(b *testing.B) {
		var buf []ingest.AggCell
		run(b, aggBodies, func(body []byte) (n int, err error) {
			buf, err = ingest.DecodeAggBatch(body, buf[:0], nil)
			return len(buf), err
		})
	})
}

// BenchmarkCanonicalJSON measures rendering the reports of one evaluated
// day (after a warmup day) as the canonical bytes blameitd serves and
// journals. An op renders them all; B/report is the mean report size.
func BenchmarkCanonicalJSON(b *testing.B) {
	e := benchParams.RandomFaultEnv(2)
	p := e.NewPipeline(pipeline.DefaultConfig())
	p.Warmup(0, netmodel.BucketsPerDay)
	var reps []*pipeline.Report
	if err := p.Run(netmodel.BucketsPerDay, 2*netmodel.BucketsPerDay, func(r *pipeline.Report) { reps = append(reps, r) }); err != nil {
		b.Fatal(err)
	}
	size := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size = 0
		for _, r := range reps {
			out, err := r.CanonicalJSON()
			if err != nil {
				b.Fatal(err)
			}
			size += len(out)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(reps))/1e3, "us/report")
	b.ReportMetric(float64(size)/float64(len(reps)), "B/report")
}

// BenchmarkQuartetClassify measures the quartet classifier.
func BenchmarkQuartetClassify(b *testing.B) {
	o := trace.Observation{Prefix: 1, Cloud: 2, Samples: 30, MeanRTT: 55}
	for i := 0; i < b.N; i++ {
		quartet.Classify(o, 50)
	}
}

// BenchmarkTraceroute measures the simulated traceroute engine.
func BenchmarkTraceroute(b *testing.B) {
	e := benchParams.Env(1, nil)
	engine := probe.NewEngine(e.Sim, 0.5)
	p := e.World.Prefixes[0].ID
	c := e.World.Attachments(p)[0].Cloud
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Traceroute(c, p, netmodel.Bucket(i%netmodel.BucketsPerDay), 0)
	}
}

// --- Ingestion-path benches ---

// benchIngestSim builds the fault-free small-world simulator the ingestion
// benches share.
func benchIngestSim() *sim.Simulator {
	w := topology.Generate(benchParams.Scale, benchSeed)
	horizon := netmodel.Bucket(netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, benchSeed+2)
	return sim.New(w, tbl, faults.NewSchedule(nil), sim.DefaultConfig(benchSeed+3))
}

// benchDrainSource reads half a day of buckets through a source, reporting
// record throughput.
func benchDrainSource(b *testing.B, mk func() ingest.ObservationSource) {
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
	b.ReportMetric(float64(records), "records/op")
}

// BenchmarkIngestLiveSim drains observations straight from the simulator:
// the zero-storage upper bound on ingestion throughput.
func BenchmarkIngestLiveSim(b *testing.B) {
	s := benchIngestSim()
	benchDrainSource(b, func() ingest.ObservationSource { return ingest.SourceFunc(s.ObservationsAt) })
}
