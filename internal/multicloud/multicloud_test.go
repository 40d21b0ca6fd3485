package multicloud

import (
	"bytes"
	"context"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/sim"
	"blameit/internal/topology"
)

const dayStart = netmodel.Bucket(netmodel.BucketsPerDay)

// buildRig assembles a providers-wide small world with the given faults.
func buildRig(t testing.TB, providers int, fs []faults.Fault, horizon netmodel.Bucket) *sim.Simulator {
	t.Helper()
	scale := topology.SmallScale()
	scale.Providers = providers
	w := topology.Generate(scale, 42)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 7)
	return sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(99))
}

// TestMulticloudConsistency is the multi-provider gate (run under -race by
// `make race`): three independent pipelines over one shared internet
// must agree on every seeded transit fault — zero disagreements on the
// blamed middle AS, zero blame of another provider's cloud segment, and at
// least one fault cross-confirmed by two or more providers.
func TestMulticloudConsistency(t *testing.T) {
	const providers = 3
	horizon := dayStart + netmodel.Bucket(288)

	scale := topology.SmallScale()
	scale.Providers = providers
	w := topology.Generate(scale, 42)
	fs := SeedMiddleFaults(w, 2, dayStart+24, 120, 36, 60)
	if len(fs) != 2 {
		t.Fatalf("SeedMiddleFaults produced %d faults, want 2", len(fs))
	}
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 7)
	s := sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(99))

	cfg := pipeline.DefaultConfig()
	r := New(s, cfg)
	if len(r.Pipelines) != providers {
		t.Fatalf("runner built %d pipelines, want %d", len(r.Pipelines), providers)
	}
	if err := r.Run(context.Background(), dayStart, horizon); err != nil {
		t.Fatal(err)
	}
	for q, reps := range r.Reports {
		if len(reps) == 0 {
			t.Fatalf("provider %d produced no reports", q)
		}
	}

	slack := netmodel.Bucket(2 * cfg.RunEvery)
	c := Grade(w, s.Sched, dayStart, horizon, slack, r.Reports)
	t.Log(c.String())
	if len(c.Faults) != 2 {
		t.Fatalf("graded %d faults, want 2", len(c.Faults))
	}
	if c.Disagreements != 0 {
		for _, f := range c.Faults {
			if !f.Localized && len(f.Localizers) > 0 {
				t.Errorf("fault %d (AS%d): providers %v blamed %v", f.FaultID, f.AS, f.Localizers, f.BlamedASes)
			}
		}
		t.Fatalf("%d cross-provider disagreements", c.Disagreements)
	}
	if c.CloudCrossBlame != 0 {
		t.Fatalf("%d verdicts blamed another provider's cloud AS", c.CloudCrossBlame)
	}
	if c.CrossConfirmed < 1 {
		t.Fatalf("no fault was independently confirmed by ≥2 providers: %+v", c.Faults)
	}
	if !c.Consistent() {
		t.Fatal("Consistent() = false despite passing gates")
	}
}

// TestMulticloudProviderOneEquivalence pins the refactor's core invariant
// end to end: a one-provider multicloud run reports byte-for-byte what the
// classic single-pipeline wiring reports.
func TestMulticloudProviderOneEquivalence(t *testing.T) {
	horizon := dayStart + netmodel.Bucket(144)
	mk := func() (*sim.Simulator, pipeline.Config) {
		scale := topology.SmallScale()
		w := topology.Generate(scale, 42)
		fsrc := SeedMiddleFaults(w, 1, dayStart+12, 96, 24, 60)
		tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 7)
		return sim.New(w, tbl, faults.NewSchedule(fsrc), sim.DefaultConfig(99)), pipeline.DefaultConfig()
	}

	s1, cfg := mk()
	r := New(s1, cfg)
	if err := r.Run(context.Background(), dayStart, horizon); err != nil {
		t.Fatal(err)
	}

	s2, cfg2 := mk()
	p := pipeline.NewSim(s2, cfg2)
	if err := p.Warmup(0, dayStart); err != nil {
		t.Fatal(err)
	}
	var classic []*pipeline.Report
	if err := p.Run(dayStart, horizon, func(rep *pipeline.Report) {
		classic = append(classic, rep)
	}); err != nil {
		t.Fatal(err)
	}

	got := r.Reports[0]
	if len(got) != len(classic) {
		t.Fatalf("multicloud produced %d reports, classic %d", len(got), len(classic))
	}
	for i := range got {
		a, err := got[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := classic[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("report %d differs between 1-provider multicloud and classic pipeline:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestSeedMiddleFaultsDeterminism: the seeded schedule is a pure function
// of the world.
func TestSeedMiddleFaultsDeterminism(t *testing.T) {
	scale := topology.SmallScale()
	scale.Providers = 3
	a := SeedMiddleFaults(topology.Generate(scale, 42), 3, 100, 50, 20, 40)
	b := SeedMiddleFaults(topology.Generate(scale, 42), 3, 100, 50, 20, 40)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].AS != b[i].AS || a[i].Start != b[i].Start {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].End() > a[i].Start {
			t.Fatalf("faults %d and %d overlap", i-1, i)
		}
	}
}
