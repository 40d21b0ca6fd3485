package fleet_test

import (
	"testing"

	"blameit/internal/chaos"
	"blameit/internal/faults"
	"blameit/internal/fleet"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/topology"
)

// fleetArm is one arm of the fleet A/B run: the same world and incident
// schedule, with the delivery fabric either perfect or under the heavy
// chaos profile.
type fleetArm struct {
	pipe *pipeline.Pipeline
	col  *fleet.Collector
	fl   *fleet.Fleet
	reg  *metrics.Registry

	probed, degraded, localized int
	correct, wrong, graded      int
}

// runFleetArm drives a 1-warmup + N-day fleet-fed run, grading every
// active-phase verdict against simulator ground truth exactly like the
// centralized chaos harness does.
func runFleetArm(t *testing.T, chaosOn bool, fs []faults.Fault, days, agents int) *fleetArm {
	t.Helper()
	s, horizon := buildSim(days, fs)
	cfg := pipeline.DefaultConfig()
	res := &fleetArm{reg: metrics.NewRegistry()}
	cfg.Metrics = res.reg
	res.fl = fleet.New(s, agents)
	ccfg := chaos.Config{Seed: 77}
	if chaosOn {
		ccfg = chaos.Heavy(1234)
	}
	res.col = fleet.NewCollector(res.fl, ccfg)
	p := pipeline.New(pipeline.Deps{
		World:  s.World,
		Table:  s.Routes,
		Source: res.col,
		Prober: probe.NewEngine(s, cfg.ProbeNoiseMS),
	}, cfg)
	res.pipe = p
	if err := p.Warmup(0, netmodel.BucketsPerDay); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	err := p.Run(netmodel.BucketsPerDay, horizon, func(rep *pipeline.Report) {
		for _, v := range rep.Verdicts {
			if !v.Probed {
				continue
			}
			res.probed++
			if v.Degraded {
				res.degraded++
				continue
			}
			if !v.OK {
				continue
			}
			res.localized++
			// Grade only clear-cut cases: dominant, sizable, middle-segment
			// ground-truth inflation.
			inf := s.DominantInflation(v.Issue.Prefixes[0], v.Issue.Cloud, rep.To)
			if inf.Segment != netmodel.SegMiddle || !inf.Dominant || inf.TotalMS < 20 {
				continue
			}
			res.graded++
			if v.AS == inf.AS {
				res.correct++
			} else {
				res.wrong++
			}
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestFleetChaosEndToEnd is the fleet robustness headline: a 7-day run
// where the delivery fabric loses, delays, duplicates, and churns agent
// partials under the heavy chaos profile, against a perfect-delivery
// control arm over the identical world and incident schedule. Every
// partial must be accounted for — merged, churn-dropped, dropped, stale,
// still in flight, or deduplicated — the quarantine must stay empty
// (fleet faults are absorbed upstream of it), and lost aggregates may
// cost localizations but never produce a wrong one.
func TestFleetChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("7-day fleet chaos A/B run skipped in -short mode")
	}
	const (
		days   = 7
		agents = 8
	)
	w := topology.Generate(topology.SmallScale(), 42)
	regions := []netmodel.Region{netmodel.RegionUSA, netmodel.RegionEurope, netmodel.RegionEastAsia}
	var fs []faults.Fault
	for d := 1; d < days; d++ {
		tr := w.Transits[regions[d%len(regions)]]
		fs = append(fs, faults.Fault{
			Kind: faults.MiddleASFault, AS: tr[d%len(tr)], ScopeCloud: faults.NoCloud,
			Start:    netmodel.Bucket((d + 1) * netmodel.BucketsPerDay),
			Duration: 18, ExtraMS: 90,
		})
	}
	fs = append(fs,
		faults.Fault{Kind: faults.CloudFault, Cloud: w.Clouds[0].ID, ScopeCloud: faults.NoCloud,
			Start: 2*netmodel.BucketsPerDay + 100, Duration: 12, ExtraMS: 60},
		faults.Fault{Kind: faults.ClientPrefixFault, Prefix: w.Prefixes[0].ID,
			Start: 3*netmodel.BucketsPerDay + 50, Duration: 12, ExtraMS: 70},
	)

	golden := runFleetArm(t, false, fs, days, agents)
	hostile := runFleetArm(t, true, fs, days, agents)

	// --- Control arm sanity: perfect delivery, clean books. ---
	gst := golden.col.Stats()
	if gst.Merged != gst.Attempted || gst.Dropped+gst.Held+gst.Stale+gst.Deduped+gst.ChurnDropped+gst.TransientErrs != 0 {
		t.Errorf("control collector books not clean: %+v", gst)
	}
	if n := golden.pipe.Quarantine().Total(); n != 0 {
		t.Errorf("control arm quarantined %d records", n)
	}
	if golden.graded == 0 || golden.correct == 0 {
		t.Fatalf("control arm graded nothing (graded=%d correct=%d) — test world too quiet", golden.graded, golden.correct)
	}

	// --- Every partial must be accounted for, exactly. ---
	st := hostile.col.Stats()
	if st.ChurnEvents == 0 || st.Dropped == 0 || st.Held == 0 || st.Stale == 0 ||
		st.Duplicated == 0 || st.TransientErrs == 0 {
		t.Fatalf("heavy profile injected nothing: %+v", st)
	}
	if st.Attempted != st.ChurnDropped+st.Dropped+st.Held+st.Merged {
		t.Errorf("partial books off: attempted %d != churn %d + dropped %d + held %d + merged %d",
			st.Attempted, st.ChurnDropped, st.Dropped, st.Held, st.Merged)
	}
	if st.Duplicated != st.Deduped {
		t.Errorf("duplicated %d partials but deduplicated %d — a duplicate slipped into a merge", st.Duplicated, st.Deduped)
	}
	if inflight := int64(hostile.col.InFlight()); st.Held != st.Stale+inflight {
		t.Errorf("held %d != stale %d + in flight %d", st.Held, st.Stale, inflight)
	}
	// Churn is epoch-scoped: restarts must be visible on the agents
	// themselves, so reborn sequence numbers can never collide.
	var epochs int64
	for _, ag := range hostile.fl.Agents {
		epochs += int64(ag.Epoch)
	}
	if epochs != st.ChurnEvents {
		t.Errorf("agent epochs sum to %d, collector counted %d churn events", epochs, st.ChurnEvents)
	}
	retries, dark := hostile.pipe.SourceFaults()
	if retries+dark != st.TransientErrs {
		t.Errorf("transient errors: injected %d, pipeline absorbed %d retries + %d dark buckets", st.TransientErrs, retries, dark)
	}
	// Fleet faults are whole-partial faults, absorbed before validation:
	// nothing reaches the observation quarantine.
	if n := hostile.pipe.Quarantine().Total(); n != 0 {
		t.Errorf("fleet faults leaked %d records into the observation quarantine", n)
	}
	// The same books, through the metrics registry.
	snap := hostile.reg.Snapshot()
	for name, want := range map[string]int64{
		"fleet.partials.merged":          st.Merged,
		"fleet.partials.dropped":         st.Dropped,
		"fleet.partials.held":            st.Held,
		"fleet.partials.stale":           st.Stale,
		"fleet.partials.deduped":         st.Deduped,
		"fleet.agent.churn":              st.ChurnEvents,
		"fleet.collector.transient_errs": st.TransientErrs,
		"pipeline.source.retries":        retries,
	} {
		if got, ok := snap.Counter(name); !ok || got != want {
			t.Errorf("counter %s = %d (ok=%v), want %d", name, got, ok, want)
		}
	}

	// --- Graceful degradation: shortfall is fine, wrong answers are not. ---
	if hostile.correct == 0 {
		t.Error("hostile arm localized nothing correctly over 7 days")
	}
	if hostile.localized*2 < golden.localized {
		t.Errorf("hostile arm localized %d issues vs control %d — degraded more than half", hostile.localized, golden.localized)
	}
	if golden.wrong != 0 {
		t.Errorf("control arm produced %d wrong localizations", golden.wrong)
	}
	if hostile.wrong != 0 {
		t.Errorf("lost/lagged partials flipped %d verdicts to wrong localizations", hostile.wrong)
	}
	t.Logf("control: probed=%d localized=%d graded=%d correct=%d wrong=%d",
		golden.probed, golden.localized, golden.graded, golden.correct, golden.wrong)
	t.Logf("fleet chaos: probed=%d localized=%d graded=%d correct=%d wrong=%d degraded=%d",
		hostile.probed, hostile.localized, hostile.graded, hostile.correct, hostile.wrong, hostile.degraded)
	t.Logf("delivery books: %+v in-flight=%d", st, hostile.col.InFlight())
}
