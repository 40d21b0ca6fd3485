package fleet_test

import (
	"bytes"
	"math/rand"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/fleet"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// buildSim constructs the shared deterministic world for one run. Every
// run rebuilds it from the same seeds so no state leaks between runs.
func buildSim(days int, fs []faults.Fault) (*sim.Simulator, netmodel.Bucket) {
	w := topology.Generate(topology.SmallScale(), 42)
	horizon := netmodel.Bucket((days + 1) * netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 7)
	return sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(99)), horizon
}

// equivFaults is a small incident schedule so the equivalence runs
// produce non-trivial reports (verdicts and tickets, not just empty
// windows).
func equivFaults(w *topology.World, days int) []faults.Fault {
	regions := []netmodel.Region{netmodel.RegionUSA, netmodel.RegionEurope}
	var fs []faults.Fault
	for d := 1; d < days; d++ {
		tr := w.Transits[regions[d%len(regions)]]
		fs = append(fs, faults.Fault{
			Kind: faults.MiddleASFault, AS: tr[d%len(tr)], ScopeCloud: faults.NoCloud,
			Start:    netmodel.Bucket((d + 1) * netmodel.BucketsPerDay),
			Duration: 18, ExtraMS: 90,
		})
	}
	fs = append(fs, faults.Fault{
		Kind: faults.CloudFault, Cloud: w.Clouds[0].ID, ScopeCloud: faults.NoCloud,
		Start: netmodel.Bucket(netmodel.BucketsPerDay + netmodel.BucketsPerDay/2), Duration: 12, ExtraMS: 60,
	})
	return fs
}

// runReports drives warmup + full run and returns the concatenated
// CanonicalJSON of every report — the byte stream that must be identical
// across feed arrangements.
func runReports(t *testing.T, deps pipeline.Deps, horizon netmodel.Bucket) []byte {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	p := pipeline.New(deps, cfg)
	var out bytes.Buffer
	if err := p.Warmup(0, netmodel.BucketsPerDay); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	err := p.Run(netmodel.BucketsPerDay, horizon, func(rep *pipeline.Report) {
		buf, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical json: %v", err)
		}
		out.Write(buf)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.Bytes()
}

// aggregateSource serves each bucket as the fleet's partials gathered in a
// quartet.Aggregate, the set the daemon's ingest queue holds a bucket's
// partials in. A non-nil rng delivers them in a seeded random order — the
// adversarial permutation the aggregate must be insensitive to.
func aggregateSource(f *fleet.Fleet, rng *rand.Rand) ingest.SourceFunc {
	return func(b netmodel.Bucket, buf []trace.Observation) []trace.Observation {
		parts := make([]*quartet.Partial, 0, len(f.Agents))
		for _, ag := range f.Agents {
			parts = append(parts, ag.Collect(b))
		}
		if rng != nil {
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		}
		agg := quartet.NewAggregate(b)
		for _, p := range parts {
			agg.Add(p)
		}
		return agg.Observations(buf)
	}
}

// TestFleetMatchesCentralized is the tentpole equivalence property end
// to end: a fleet of edge-aggregating agents feeding the pipeline merged
// partials produces byte-identical reports to the centralized raw
// observation feed — at 1, 4, and 16 agents, and under a shuffled
// delivery order.
func TestFleetMatchesCentralized(t *testing.T) {
	const days = 2
	w := topology.Generate(topology.SmallScale(), 42)
	fs := equivFaults(w, days)

	central, horizon := buildSim(days, fs)
	cfg := pipeline.DefaultConfig()
	want := runReports(t, pipeline.Deps{
		World:  central.World,
		Table:  central.Routes,
		Source: ingest.SourceFunc(central.ObservationsAt),
		Prober: probe.NewEngine(central, cfg.ProbeNoiseMS),
	}, horizon)
	if len(want) == 0 {
		t.Fatal("centralized run produced no report bytes")
	}

	for _, agents := range []int{1, 4, 16} {
		s, _ := buildSim(days, fs)
		f := fleet.New(s, agents)
		if agents <= len(s.World.Prefixes) && len(f.Agents) != agents {
			t.Fatalf("fleet.New(%d) built %d agents", agents, len(f.Agents))
		}
		got := runReports(t, pipeline.Deps{
			World:  s.World,
			Table:  s.Routes,
			Source: aggregateSource(f, nil),
			Prober: probe.NewEngine(s, cfg.ProbeNoiseMS),
		}, horizon)
		if !bytes.Equal(got, want) {
			t.Errorf("%d-agent fleet reports diverge from centralized (%d vs %d bytes)", agents, len(got), len(want))
		}
	}

	// Same property under an adversarial delivery order.
	s, _ := buildSim(days, fs)
	got := runReports(t, pipeline.Deps{
		World:  s.World,
		Table:  s.Routes,
		Source: aggregateSource(fleet.New(s, 16), rand.New(rand.NewSource(7))),
		Prober: probe.NewEngine(s, cfg.ProbeNoiseMS),
	}, horizon)
	if !bytes.Equal(got, want) {
		t.Error("shuffled-delivery fleet reports diverge from centralized")
	}
}
