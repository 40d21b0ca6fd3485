// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: `go test -bench=. -benchmem` reruns each
// experiment on the small-scale world and reports its headline numbers as
// custom benchmark metrics, so the reproduction's shape claims are checked
// on every run. The blameit-experiments command prints the full tables and
// series; these benches track the scalar summaries.
package bench

import (
	"bytes"
	"context"
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

func benchScale() topology.Scale { return topology.SmallScale() }

func benchEnv(days int, withFaults bool) *experiments.Env {
	var fs []faults.Fault
	if withFaults {
		w := topology.Generate(benchScale(), benchSeed)
		horizon := netmodel.Bucket(days * netmodel.BucketsPerDay)
		fs = faults.Generate(w, faults.DefaultGenerateConfig(), horizon, benchSeed+11).Faults
	}
	return experiments.NewEnv(experiments.EnvConfig{
		Scale: benchScale(), Seed: benchSeed, Days: days,
		Churn: bgp.DefaultChurnConfig(), Faults: fs,
	})
}

// BenchmarkTable1Properties regenerates the qualitative comparison matrix.
func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.Table1Properties()
		if len(tbl.Rows) != 7 {
			b.Fatal("table shape")
		}
	}
}

// BenchmarkTable2Dataset measures the synthetic dataset counts (Table 2).
func BenchmarkTable2Dataset(b *testing.B) {
	var ds experiments.DatasetStats
	for i := 0; i < b.N; i++ {
		e := benchEnv(1, false)
		_, ds = experiments.Table2Dataset(e, 30)
	}
	b.ReportMetric(float64(ds.RTTMeasurements), "rtts/30days")
	b.ReportMetric(float64(ds.Client24s), "client-24s")
	b.ReportMetric(float64(ds.BGPPrefixes), "bgp-prefixes")
}

// BenchmarkFigure2BadQuartets measures badness prevalence per region.
func BenchmarkFigure2BadQuartets(b *testing.B) {
	var res experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		e := benchEnv(1, true)
		_, res = experiments.Figure2BadQuartets(e, 0, 1)
	}
	b.ReportMetric(res.Frac[netmodel.RegionUSA][netmodel.NonMobile]*100, "usa-bad-%")
	b.ReportMetric(res.Frac[netmodel.RegionIndia][netmodel.NonMobile]*100, "india-bad-%")
}

// BenchmarkFigure3Diurnal measures the night-vs-day badness pattern.
func BenchmarkFigure3Diurnal(b *testing.B) {
	var res experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		e := benchEnv(7, false)
		_, res = experiments.Figure3Diurnal(e)
	}
	night := 0.0
	if res.NightHigherThanDay {
		night = 1
	}
	b.ReportMetric(night, "night>day")
}

// BenchmarkFigure4aPersistence measures the long-tailed badness durations
// (paper: >60% fleeting, ~8% over 2 hours).
func BenchmarkFigure4aPersistence(b *testing.B) {
	var res experiments.Fig4aResult
	for i := 0; i < b.N; i++ {
		e := benchEnv(2, true)
		_, res = experiments.Figure4aPersistence(e, 0, 2)
	}
	b.ReportMetric(res.FracOneBucket*100, "fleeting-%")
	b.ReportMetric(res.FracOver2h*100, "over2h-%")
}

// BenchmarkFigure4bImpactSkew measures the ranking advantage of impact
// over prefix count (paper: ~3x fewer tuples for 80% coverage).
func BenchmarkFigure4bImpactSkew(b *testing.B) {
	var res experiments.Fig4bResult
	for i := 0; i < b.N; i++ {
		e := benchEnv(2, true)
		_, res = experiments.Figure4bImpactSkew(e, 0, 2)
	}
	b.ReportMetric(res.RatioAdvantage, "ranking-advantage-x")
}

// BenchmarkFigure6Grouping measures middle-segment sharing under the three
// grouping definitions (paper: BGP path pools the most samples).
func BenchmarkFigure6Grouping(b *testing.B) {
	var res experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		e := benchEnv(1, false)
		_, res = experiments.Figure6Grouping(e)
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	b.ReportMetric(mean(res.ByBGPPrefix), "share-prefix")
	b.ReportMetric(mean(res.ByBGPAtom), "share-atom")
	b.ReportMetric(mean(res.ByBGPPath), "share-path")
}

// BenchmarkFigure8BlameFractions runs a compressed month and reports the
// stable blame mix (paper: middle slightly above client, cloud < 4%).
func BenchmarkFigure8BlameFractions(b *testing.B) {
	days, maintenance := 6, 3
	var res experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		base := benchEnv(1, false)
		fs := experiments.Fig8Schedule(base, 1, days, maintenance, benchSeed+13)
		e := experiments.NewEnv(experiments.EnvConfig{
			Scale: benchScale(), Seed: benchSeed, Days: days + 1,
			Churn: bgp.DefaultChurnConfig(), Faults: fs,
		})
		_, res = experiments.Figure8BlameFractions(e, 1, days, maintenance)
	}
	avg := func(cat core.Blame) float64 {
		var s float64
		for _, v := range res.Daily[cat] {
			s += v
		}
		return 100 * s / float64(len(res.Daily[cat]))
	}
	b.ReportMetric(avg(core.BlameCloud), "cloud-%")
	b.ReportMetric(avg(core.BlameMiddle), "middle-%")
	b.ReportMetric(avg(core.BlameClient), "client-%")
	b.ReportMetric(100*res.Daily[core.BlameCloud][maintenance], "maintenance-day-cloud-%")
}

// BenchmarkFigure9RegionalBlame reports the middle-fraction contrast
// between still-evolving and mature regions.
func BenchmarkFigure9RegionalBlame(b *testing.B) {
	var res experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		base := benchEnv(1, false)
		fs := experiments.Fig9Schedule(base, 1, benchSeed+17)
		e := experiments.NewEnv(experiments.EnvConfig{
			Scale: benchScale(), Seed: benchSeed, Days: 2,
			Churn: bgp.DefaultChurnConfig(), Faults: fs,
		})
		_, res = experiments.Figure9RegionalBlame(e, 1)
	}
	b.ReportMetric(100*res.Frac[netmodel.RegionIndia][core.BlameMiddle], "india-middle-%")
	b.ReportMetric(100*res.Frac[netmodel.RegionUSA][core.BlameMiddle], "usa-middle-%")
}

// BenchmarkFigure10DurationByCategory reports incident-duration medians by
// blame category (paper: cloud issues resolve fastest).
func BenchmarkFigure10DurationByCategory(b *testing.B) {
	var res experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		e := benchEnv(3, true)
		_, res = experiments.Figure10DurationByCategory(e, 1, 2)
	}
	b.ReportMetric(float64(res.Incidents(core.BlameCloud)), "cloud-incidents")
	b.ReportMetric(float64(res.Incidents(core.BlameMiddle)), "middle-incidents")
	b.ReportMetric(float64(res.Incidents(core.BlameClient)), "client-incidents")
}

// BenchmarkCaseStudies replays the five §6.3 case studies (paper: all
// localized correctly).
func BenchmarkCaseStudies(b *testing.B) {
	var outcomes []experiments.CaseOutcome
	for i := 0; i < b.N; i++ {
		_, outcomes = experiments.CaseStudySuite(benchScale(), benchSeed)
	}
	b.ReportMetric(experiments.CorrectFraction(outcomes)*100, "correct-%")
}

// BenchmarkIncidentBattery replays the randomized 88-incident validation
// (paper: 88/88 matched the manual investigations).
func BenchmarkIncidentBattery(b *testing.B) {
	var outcomes []experiments.CaseOutcome
	for i := 0; i < b.N; i++ {
		_, outcomes = experiments.IncidentBatterySuite(benchScale(), benchSeed, 88)
	}
	b.ReportMetric(experiments.CorrectFraction(outcomes)*100, "correct-%")
	b.ReportMetric(float64(len(outcomes)), "incidents")
}

func benchWorkload(n int) experiments.MiddleWorkload {
	return experiments.DefaultMiddleWorkload(benchScale(), benchSeed, n)
}

// BenchmarkFigure11Corroboration compares per-path corroboration under
// BGP-path vs <AS,Metro> grouping (paper: ~88% perfect vs far lower).
func BenchmarkFigure11Corroboration(b *testing.B) {
	var res experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		_, res = experiments.Figure11Corroboration(benchWorkload(25))
	}
	b.ReportMetric(res.PerfectFracBGPPath*100, "bgp-path-perfect-%")
	b.ReportMetric(res.PerfectFracASMetro*100, "as-metro-perfect-%")
}

// BenchmarkFigure12ClientTime compares BlameIt's client-time ranking with
// the oracle (paper: estimate tracks oracle; 5% budget covers ~83%).
func BenchmarkFigure12ClientTime(b *testing.B) {
	var res experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		_, res = experiments.Figure12ClientTime(benchWorkload(40))
	}
	b.ReportMetric(res.Top5Oracle*100, "top5-oracle-%")
	b.ReportMetric(res.Top5Estimate*100, "top5-estimate-%")
	b.ReportMetric(res.Spearman, "spearman")
}

// BenchmarkFigure13FrequencyAccuracy sweeps background probing frequency
// (paper: 12h + churn keeps 93% accuracy at 72x fewer probes).
func BenchmarkFigure13FrequencyAccuracy(b *testing.B) {
	var res experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		_, res = experiments.Figure13FrequencySweep(benchWorkload(15))
	}
	b.ReportMetric(res.SweetSpotAccuracy*100, "sweetspot-accuracy-%")
	b.ReportMetric(res.ProbeReduction1012h, "probe-reduction-x")
}

// BenchmarkProbeOverhead compares probing volume against the active-only
// and Trinocular-style comparators (paper: 72x and 20x fewer).
func BenchmarkProbeOverhead(b *testing.B) {
	var res experiments.ProbeOverheadResult
	for i := 0; i < b.N; i++ {
		_, res = experiments.ProbeOverhead(benchWorkload(12))
	}
	b.ReportMetric(res.VsActiveOnly, "vs-active-only-x")
	b.ReportMetric(res.VsTrinocular, "vs-trinocular-x")
}

// BenchmarkTomographyInfeasibility regenerates the §4.1 rank analysis.
func BenchmarkTomographyInfeasibility(b *testing.B) {
	var res experiments.TomoResult
	for i := 0; i < b.N; i++ {
		_, res = experiments.TomographyInfeasibility(10)
	}
	b.ReportMetric(float64(res.Unknowns-res.Rank), "rank-deficiency")
}

// --- Ablation benches (design choices called out in DESIGN.md §4) ---

// ablationRun measures how often a European client-AS fault is correctly
// blamed on the client under a given Algorithm 1 configuration.
func ablationRun(b *testing.B, cfg core.Config) (clientFrac float64) {
	w := topology.Generate(benchScale(), benchSeed)
	as := w.Eyeballs[netmodel.RegionEurope][1]
	f := faults.Fault{
		Kind: faults.ClientASFault, AS: as, ScopeCloud: faults.NoCloud,
		Start: netmodel.BucketsPerDay + 4*netmodel.BucketsPerHour, Duration: 24, ExtraMS: 110,
	}
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, benchSeed+2)
	s := sim.New(w, tbl, faults.NewSchedule([]faults.Fault{f}), sim.DefaultConfig(benchSeed+3))
	pcfg := pipeline.DefaultConfig()
	pcfg.Core = cfg
	p := pipeline.NewSim(s, pcfg)
	p.Warmup(0, netmodel.BucketsPerDay)
	var hits, total int
	p.Run(f.Start, f.End(), func(rep *pipeline.Report) {
		for _, r := range rep.Results {
			if w.Prefixes[r.Q.Obs.Prefix].AS != as {
				continue
			}
			total++
			if r.Blame == core.BlameClient {
				hits++
			}
		}
	})
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// BenchmarkAblationTau sweeps the bad-fraction threshold τ.
func BenchmarkAblationTau(b *testing.B) {
	taus := []float64{0.6, 0.8, 0.95}
	var fracs []float64
	for i := 0; i < b.N; i++ {
		fracs = fracs[:0]
		for _, tau := range taus {
			cfg := core.DefaultConfig()
			cfg.Tau = tau
			fracs = append(fracs, ablationRun(b, cfg))
		}
	}
	b.ReportMetric(fracs[0]*100, "client-recall-tau0.6-%")
	b.ReportMetric(fracs[1]*100, "client-recall-tau0.8-%")
	b.ReportMetric(fracs[2]*100, "client-recall-tau0.95-%")
}

// cloudFaultRecall measures how often a moderate cloud fault (large
// against the location's expected RTT, but leaving many quartets under the
// static badness target — the §4.3 worked example) is blamed on the cloud.
func cloudFaultRecall(cfg core.Config) float64 {
	w := topology.Generate(benchScale(), benchSeed)
	c := w.CloudsInRegion(netmodel.RegionEurope)[0]
	f := faults.Fault{
		Kind: faults.CloudFault, Cloud: c, ScopeCloud: faults.NoCloud,
		Start: netmodel.BucketsPerDay + 4*netmodel.BucketsPerHour, Duration: 24, ExtraMS: 18,
	}
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, benchSeed+2)
	s := sim.New(w, tbl, faults.NewSchedule([]faults.Fault{f}), sim.DefaultConfig(benchSeed+3))
	pcfg := pipeline.DefaultConfig()
	pcfg.Core = cfg
	p := pipeline.NewSim(s, pcfg)
	p.Warmup(0, netmodel.BucketsPerDay)
	var hits, total int
	p.Run(f.Start, f.End(), func(rep *pipeline.Report) {
		for _, r := range rep.Results {
			if r.Q.Obs.Cloud != c {
				continue
			}
			total++
			if r.Blame == core.BlameCloud {
				hits++
			}
		}
	})
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// BenchmarkAblationExpectedRTT compares learned expected RTTs against the
// static badness targets on a moderate cloud fault (the §4.3 design
// choice: the learned median catches distribution shifts the static
// threshold misses).
func BenchmarkAblationExpectedRTT(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		with = cloudFaultRecall(cfg)
		cfg.UseExpectedRTT = false
		without = cloudFaultRecall(cfg)
	}
	b.ReportMetric(with*100, "with-expected-%")
	b.ReportMetric(without*100, "without-expected-%")
}

// BenchmarkAblationMinAggregate sweeps the minimum aggregate size gate.
func BenchmarkAblationMinAggregate(b *testing.B) {
	var low, def, high float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.MinAggregate = 1
		low = ablationRun(b, cfg)
		cfg.MinAggregate = 5
		def = ablationRun(b, cfg)
		cfg.MinAggregate = 20
		high = ablationRun(b, cfg)
	}
	b.ReportMetric(low*100, "min1-%")
	b.ReportMetric(def*100, "min5-%")
	b.ReportMetric(high*100, "min20-%")
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkObservationGeneration measures the simulator's passive-stream
// throughput (observations per op over one bucket).
func BenchmarkObservationGeneration(b *testing.B) {
	e := benchEnv(1, true)
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
	e := benchEnv(1, true)
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

// BenchmarkPipelineDay measures a full pipeline day end to end.
func BenchmarkPipelineDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchEnv(2, true)
		p := e.NewPipeline(pipeline.DefaultConfig())
		p.Warmup(0, netmodel.BucketsPerDay)
		p.Run(netmodel.BucketsPerDay, 2*netmodel.BucketsPerDay, nil)
	}
}

// benchPipelineFullDay drives one warmup day plus one full evaluated day
// through a fresh pipeline at the given worker count. The environment is
// built once outside the timer and the simulator's fan-out is flipped per
// run; output is byte-identical at any worker count, so the sequential and
// parallel benchmarks below perform exactly the same work.
func benchPipelineFullDay(b *testing.B, workers int) {
	e := benchEnv(2, true)
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

// BenchmarkQuartetClassify measures the quartet classifier.
func BenchmarkQuartetClassify(b *testing.B) {
	o := trace.Observation{Prefix: 1, Cloud: 2, Samples: 30, MeanRTT: 55}
	for i := 0; i < b.N; i++ {
		quartet.Classify(o, 50)
	}
}

// BenchmarkTraceroute measures the simulated traceroute engine.
func BenchmarkTraceroute(b *testing.B) {
	e := benchEnv(1, false)
	engine := probe.NewEngine(e.Sim, 0.5)
	p := e.World.Prefixes[0].ID
	c := e.World.Attachments(p)[0].Cloud
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Traceroute(c, p, netmodel.Bucket(i%netmodel.BucketsPerDay), 0)
	}
}

// BenchmarkReverseTraceroutes evaluates the §5.1 future-work extension:
// reverse-only congestion is invisible to forward probing and localized by
// rich-client reverse traceroutes.
func BenchmarkReverseTraceroutes(b *testing.B) {
	var res experiments.ReverseEvalResult
	for i := 0; i < b.N; i++ {
		_, res = experiments.ReverseEval(benchScale(), benchSeed, 15)
	}
	b.ReportMetric(res.ForwardAccuracy*100, "forward-only-%")
	b.ReportMetric(res.ReverseAccuracy*100, "with-reverse-%")
	b.ReportMetric(res.CoveredAccuracy*100, "within-coverage-%")
}

// BenchmarkAblationBudgetMode compares the production per-location budget
// against the per-AS alternative the paper rejects for simplicity (§5.3),
// under a shared middle-fault workload and equal per-entity allowances.
func BenchmarkAblationBudgetMode(b *testing.B) {
	run := func(mode probe.BudgetMode) (probed int64, distinct int) {
		env, start, end := experiments.DefaultMiddleWorkload(benchScale(), benchSeed, 10).Build()
		cfg := pipeline.DefaultConfig()
		cfg.BudgetPerCloudPerDay = 2
		p := env.NewPipeline(cfg)
		p.Budget.Mode = mode
		p.Warmup(0, netmodel.BucketsPerDay)
		seen := map[netmodel.MiddleKey]bool{}
		p.Run(netmodel.BucketsPerDay, end, func(rep *pipeline.Report) {
			for _, v := range rep.Verdicts {
				if v.Probed {
					seen[v.Issue.Key] = true
				}
			}
		})
		_ = start
		return p.Prober.Counters().Count(probe.OnDemand), len(seen)
	}
	var cloudProbes, asProbes int64
	var cloudIssues, asIssues int
	for i := 0; i < b.N; i++ {
		cloudProbes, cloudIssues = run(probe.PerCloud)
		asProbes, asIssues = run(probe.PerMiddleAS)
	}
	b.ReportMetric(float64(cloudProbes), "per-cloud-probes")
	b.ReportMetric(float64(cloudIssues), "per-cloud-issues")
	b.ReportMetric(float64(asProbes), "per-as-probes")
	b.ReportMetric(float64(asIssues), "per-as-issues")
}

// --- Ingestion-path benches ---

// benchIngestSim builds the fault-free small-world simulator the ingestion
// benches share.
func benchIngestSim() *sim.Simulator {
	w := topology.Generate(benchScale(), benchSeed)
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

// BenchmarkIngestStreamReplay drains a recorded JSONL trace through the
// streaming reader, measuring replay (decode-bound) throughput.
func BenchmarkIngestStreamReplay(b *testing.B) {
	s := benchIngestSim()
	horizon := netmodel.Bucket(netmodel.BucketsPerDay / 2)
	var file bytes.Buffer
	var buf []trace.Observation
	for bk := netmodel.Bucket(0); bk < horizon; bk++ {
		buf = s.ObservationsAt(bk, buf[:0])
		if err := trace.WriteJSONL(&file, buf); err != nil {
			b.Fatal(err)
		}
	}
	raw := file.Bytes()
	b.SetBytes(int64(len(raw)))
	benchDrainSource(b, func() ingest.ObservationSource {
		return ingest.NewStreamSource(bytes.NewReader(raw))
	})
}
