package experiments

import (
	"fmt"

	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/sim"
	"blameit/internal/topology"
)

// blameRecall injects one two-hour fault on the second day, runs the
// pipeline over it under the given Algorithm 1 configuration after a
// one-day warm-up, and returns the share of the verdicts picked by
// affected that carry the blame the fault should earn.
func blameRecall(p Params, w *topology.World, cfg core.Config, f faults.Fault, want core.Blame, affected func(core.Result) bool) float64 {
	f.ScopeCloud = faults.NoCloud
	f.Start = netmodel.BucketsPerDay + 4*netmodel.BucketsPerHour
	f.Duration = 24
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, p.Seed+2)
	s := sim.New(w, tbl, faults.NewSchedule([]faults.Fault{f}), sim.DefaultConfig(p.Seed+3))
	pcfg := pipeline.DefaultConfig()
	pcfg.Core = cfg
	pl := pipeline.NewSim(s, pcfg)
	pl.Warmup(0, netmodel.BucketsPerDay)
	var hits, total int
	pl.Run(f.Start, f.End(), func(rep *pipeline.Report) {
		for _, r := range rep.Results {
			if !affected(r) {
				continue
			}
			total++
			if r.Blame == want {
				hits++
			}
		}
	})
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// clientFaultRecall measures how often a European client-AS fault is
// blamed on the client.
func clientFaultRecall(p Params, cfg core.Config) float64 {
	w := topology.Generate(p.Scale, p.Seed)
	as := w.Eyeballs[netmodel.RegionEurope][1]
	f := faults.Fault{Kind: faults.ClientASFault, AS: as, ExtraMS: 110}
	return blameRecall(p, w, cfg, f, core.BlameClient, func(r core.Result) bool {
		return w.Prefixes[r.Q.Obs.Prefix].AS == as
	})
}

// cloudFaultRecall measures how often a moderate cloud fault (large
// against the location's expected RTT, but leaving many quartets under the
// static badness target — the §4.3 worked example) is blamed on the cloud.
func cloudFaultRecall(p Params, cfg core.Config) float64 {
	w := topology.Generate(p.Scale, p.Seed)
	c := w.CloudsInRegion(netmodel.RegionEurope)[0]
	f := faults.Fault{Kind: faults.CloudFault, Cloud: c, ExtraMS: 18}
	return blameRecall(p, w, cfg, f, core.BlameCloud, func(r core.Result) bool {
		return r.Q.Obs.Cloud == c
	})
}

// ablation renders an ablation's scalars as its table.
func ablation(id, title string, scalars []Scalar) Outcome {
	t := &Table{ID: id, Title: title, Header: []string{"Setting", "Value"}}
	for _, s := range scalars {
		t.Rows = append(t.Rows, []string{s.Name, fmt.Sprintf("%.4g", s.Value)})
	}
	return Outcome{Text: rendered(t), Scalars: scalars}
}

// ablateTau sweeps the bad-fraction threshold τ on client-fault recall.
func ablateTau(p Params) Outcome {
	var scalars []Scalar
	for _, tau := range []float64{0.6, 0.8, 0.95} {
		cfg := core.DefaultConfig()
		cfg.Tau = tau
		scalars = append(scalars, Scalar{Name: fmt.Sprintf("client-recall-tau%v-%%", tau), Value: clientFaultRecall(p, cfg) * 100})
	}
	return ablation("AblationTau", "Client-fault recall vs bad-fraction threshold", scalars)
}

// ablateExpectedRTT compares learned expected RTTs against the static
// badness targets on a moderate cloud fault (the §4.3 design choice: the
// learned median catches distribution shifts the static threshold misses).
func ablateExpectedRTT(p Params) Outcome {
	cfg := core.DefaultConfig()
	with := cloudFaultRecall(p, cfg)
	cfg.UseExpectedRTT = false
	without := cloudFaultRecall(p, cfg)
	return ablation("AblationExpectedRTT", "Cloud-fault recall: learned expected RTT vs static target", []Scalar{
		{Name: "with-expected-%", Value: with * 100},
		{Name: "without-expected-%", Value: without * 100},
	})
}

// ablateMinAggregate sweeps the minimum aggregate size gate.
func ablateMinAggregate(p Params) Outcome {
	var scalars []Scalar
	for _, n := range []int{1, 5, 20} {
		cfg := core.DefaultConfig()
		cfg.MinAggregate = n
		scalars = append(scalars, Scalar{Name: fmt.Sprintf("min%d-%%", n), Value: clientFaultRecall(p, cfg) * 100})
	}
	return ablation("AblationMinAggregate", "Client-fault recall vs minimum aggregate size", scalars)
}

// ablateBudgetMode compares the production per-location budget against
// the per-AS alternative the paper rejects for simplicity (§5.3), under a
// shared middle-fault workload and equal per-entity allowances.
func ablateBudgetMode(p Params) Outcome {
	run := func(mode probe.BudgetMode) (probed int64, distinct int) {
		env, _, end := DefaultMiddleWorkload(p.Scale, p.Seed, 10).Build()
		cfg := pipeline.DefaultConfig()
		cfg.BudgetPerCloudPerDay = 2
		pl := env.NewPipeline(cfg)
		pl.Budget.Mode = mode
		pl.Warmup(0, netmodel.BucketsPerDay)
		seen := map[netmodel.MiddleKey]bool{}
		pl.Run(netmodel.BucketsPerDay, end, func(rep *pipeline.Report) {
			for _, v := range rep.Verdicts {
				if v.Probed {
					seen[v.Issue.Key] = true
				}
			}
		})
		return pl.Prober.Counters().Count(probe.OnDemand), len(seen)
	}
	cloudProbes, cloudIssues := run(probe.PerCloud)
	asProbes, asIssues := run(probe.PerMiddleAS)
	return ablation("AblationBudgetMode", "On-demand probes and distinct issues probed, per-location vs per-AS budget", []Scalar{
		{Name: "per-cloud-probes", Value: float64(cloudProbes)},
		{Name: "per-cloud-issues", Value: float64(cloudIssues)},
		{Name: "per-as-probes", Value: float64(asProbes)},
		{Name: "per-as-issues", Value: float64(asIssues)},
	})
}
