package pipeline

import (
	"context"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/probe"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// recordedSource serves buckets generated ahead of time, so a measurement
// of Step sees none of the simulator's own allocations.
type recordedSource [][]trace.Observation

func (s recordedSource) ObservationsAt(_ context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	return append(buf, s[b]...), nil
}

// stepAllocsCeiling is the gate: heap allocations per ingested record over
// a stepped day, job runs and reports included. The step loop measures 0.081
// here (0.095 while every job snapshotted the registry for a per-report
// delta nobody read, 2.73 before quartet routes were resolved once and
// carried by the window); the ceiling leaves a quarter on top. The count is
// deterministic, so a failure is a real regression: find the new per-record
// allocation before raising the number.
const stepAllocsCeiling = 0.10

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestStepAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w := topology.Generate(topology.SmallScale(), 42)
	const days = 2
	horizon := netmodel.Bucket(days * netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 7)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), horizon, 43)
	s := sim.New(w, tbl, fs, sim.DefaultConfig(99))
	src := make(recordedSource, horizon)
	records := 0
	for b := range src {
		src[b] = s.ObservationsAt(netmodel.Bucket(b), nil)
		if b >= netmodel.BucketsPerDay {
			records += len(src[b])
		}
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := New(Deps{World: w, Table: tbl, Source: src, Prober: probe.NewEngine(s, cfg.ProbeNoiseMS)}, cfg)
	if err := p.Warmup(0, dayStart); err != nil {
		t.Fatal(err)
	}

	// One call steps one job window; AllocsPerRun makes one call more than
	// it averages over, and together they cover the day.
	windows := netmodel.BucketsPerDay / cfg.RunEvery
	b := dayStart
	perWindow := testing.AllocsPerRun(windows-1, func() {
		for i := 0; i < cfg.RunEvery; i++ {
			if _, err := p.Step(b); err != nil {
				t.Fatal(err)
			}
			b++
		}
	})
	perRecord := perWindow * float64(windows) / float64(records)
	t.Logf("%.0f allocations per window, %d records in the day: %.3f per record", perWindow, records, perRecord)
	if perRecord > stepAllocsCeiling {
		t.Errorf("Step allocates %.3f times per record, ceiling %.3f", perRecord, stepAllocsCeiling)
	}
}
