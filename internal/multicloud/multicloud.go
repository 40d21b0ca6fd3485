// Package multicloud runs one unchanged BlameIt pipeline per cloud
// provider over a shared simulated internet, then grades whether the
// independent deployments agree on what the internet did.
//
// The premise follows the paper's closing observation: a wide-area fault in
// a transit AS is visible to every provider whose traffic crosses it, so
// two providers running the same localization independently should blame
// the same middle AS for the same incident — and should never blame each
// other's cloud segments, which their own telemetry cannot see inside.
// Each provider gets its own observation stream (its served prefixes
// steered to its own anycast edges), its own probe engine, baseliner, and
// metrics registry; only the world, the BGP fabric, and the fault timeline
// are shared, exactly as in reality.
package multicloud

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"blameit/internal/faults"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// Runner owns one pipeline per provider of the simulator's world. Build it
// with New, drive it with Run, grade the collected reports with Grade.
type Runner struct {
	Sim       *sim.Simulator
	Pipelines []*pipeline.Pipeline
	// Reports collects each provider's job reports in run order. Filled by
	// Run; indexed by provider.
	Reports [][]*pipeline.Report
}

// New assembles one pipeline per provider over the shared simulator. Each
// provider's wiring mirrors pipeline.SimDeps — its own traceroute engine
// over its own observation stream — plus a private metrics registry so
// per-provider counters never mix. The pipeline configuration is shared;
// cfg.Metrics is ignored.
func New(s *sim.Simulator, cfg pipeline.Config) *Runner {
	n := s.World.NumProviders()
	r := &Runner{
		Sim:       s,
		Pipelines: make([]*pipeline.Pipeline, n),
		Reports:   make([][]*pipeline.Report, n),
	}
	for i := range r.Pipelines {
		q := netmodel.ProviderID(i)
		pcfg := cfg
		pcfg.Metrics = metrics.NewRegistry()
		r.Pipelines[i] = pipeline.New(pipeline.Deps{
			World: s.World,
			Table: s.Routes,
			Source: ingest.SourceFunc(func(b netmodel.Bucket, buf []trace.Observation) []trace.Observation {
				return s.ObservationsForProvider(q, b, buf)
			}),
			Prober:   probe.NewEngine(s, cfg.ProbeNoiseMS),
			Provider: q,
		}, pcfg)
	}
	return r
}

// Run warms up and runs every provider's pipeline concurrently over the
// shared timeline: warmup learns [0, warmupEnd), the job runs
// [warmupEnd, horizon). The simulator is safe for concurrent readers, so
// the pipelines genuinely overlap — which is also what shakes out cross-
// provider data races under -race. The first provider error (by provider
// number) is returned.
func (r *Runner) Run(ctx context.Context, warmupEnd, horizon netmodel.Bucket) error {
	errs := make([]error, len(r.Pipelines))
	var wg sync.WaitGroup
	for q := range r.Pipelines {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			p := r.Pipelines[q]
			if err := p.WarmupContext(ctx, 0, warmupEnd); err != nil {
				errs[q] = fmt.Errorf("multicloud: provider %d warmup: %w", q, err)
				return
			}
			errs[q] = nil
			if err := p.RunContext(ctx, warmupEnd, horizon, func(rep *pipeline.Report) {
				r.Reports[q] = append(r.Reports[q], rep)
			}); err != nil {
				errs[q] = fmt.Errorf("multicloud: provider %d run: %w", q, err)
			}
		}(q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FaultOutcome grades one injected middle-AS fault across providers.
type FaultOutcome struct {
	FaultID int
	AS      netmodel.ASN
	Start   netmodel.Bucket
	// Localizers lists the providers that produced at least one OK
	// middle verdict matching the fault's window and path footprint.
	Localizers []netmodel.ProviderID
	// BlamedASes is the sorted set of the localizing providers' primary
	// blames — each provider's majority answer across its matching
	// verdicts (a fault spans many job windows; the provider's verdict is
	// the AS it blamed most often, not every noisy one-off).
	BlamedASes []netmodel.ASN
	// Localized: every localizing provider blamed exactly the injected AS.
	Localized bool
	// CrossConfirmed: at least two providers independently localized it.
	CrossConfirmed bool
}

// Consistency is the cross-provider agreement report for one run.
type Consistency struct {
	Providers int
	Faults    []FaultOutcome
	// Disagreements counts faults where some provider localized a
	// different AS than the injected one.
	Disagreements int
	// CrossConfirmed counts faults independently localized by ≥2
	// providers.
	CrossConfirmed int
	// CloudCrossBlame counts OK verdicts in which a provider blamed an AS
	// that is another provider's cloud AS — impossible in a correct run,
	// since no provider's paths traverse another provider's cloud.
	CloudCrossBlame int
}

// Consistent reports whether the run meets the multi-provider gate: no
// cross-provider disagreement on any injected middle fault, no provider
// ever blaming another provider's cloud AS, and at least one fault
// independently confirmed by two or more providers.
func (c Consistency) Consistent() bool {
	return c.Disagreements == 0 && c.CloudCrossBlame == 0 && c.CrossConfirmed >= 1
}

// String renders a one-line summary for logs.
func (c Consistency) String() string {
	return fmt.Sprintf("multicloud: %d providers, %d faults graded, %d cross-confirmed, %d disagreements, %d cloud cross-blames",
		c.Providers, len(c.Faults), c.CrossConfirmed, c.Disagreements, c.CloudCrossBlame)
}

// Grade compares the providers' verdicts against the injected fault
// schedule. Only unscoped forward middle-AS faults starting inside
// [from, to) are graded — those are the incidents every provider's paths
// can see; scoped or reverse-only faults are provider- or
// direction-specific by construction. A verdict counts toward a fault when
// it is OK, blames a middle AS within the fault's active window (plus
// slack buckets of detection latency), and the fault's AS lies on the
// verdict's path — the same footprint the fault injected latency into.
// Verdicts explained by a different concurrently-active middle fault are
// credited to that fault instead, not held against this one.
func Grade(w *topology.World, sched *faults.Schedule, from, to, slack netmodel.Bucket, reports [][]*pipeline.Report) Consistency {
	c := Consistency{Providers: len(reports)}

	// Cloud ASNs by provider, for cross-blame detection.
	cloudProv := make(map[netmodel.ASN]netmodel.ProviderID, w.NumProviders())
	for q := 0; q < w.NumProviders(); q++ {
		cloudProv[w.ProviderASN(netmodel.ProviderID(q))] = netmodel.ProviderID(q)
	}

	// Collect every OK middle verdict per provider once.
	type verdict struct {
		as     netmodel.ASN
		bucket netmodel.Bucket
		middle []netmodel.ASN
	}
	byProv := make([][]verdict, len(reports))
	for q, reps := range reports {
		for _, rep := range reps {
			for _, v := range rep.Verdicts {
				if !v.OK {
					continue
				}
				if owner, ok := cloudProv[v.AS]; ok && owner != netmodel.ProviderID(q) {
					c.CloudCrossBlame++
					continue
				}
				if v.Segment != netmodel.SegMiddle {
					continue
				}
				byProv[q] = append(byProv[q], verdict{
					as:     v.AS,
					bucket: v.Issue.Bucket,
					middle: v.Issue.Path.Middle,
				})
			}
		}
	}

	onPath := func(as netmodel.ASN, middle []netmodel.ASN) bool {
		for _, a := range middle {
			if a == as {
				return true
			}
		}
		return false
	}
	// gradable reports whether fault f is one of the graded incidents.
	gradable := func(f faults.Fault) bool {
		return f.Kind == faults.MiddleASFault && !f.ReverseOnly &&
			f.ScopeCloud == faults.NoCloud && f.Start >= from && f.Start < to
	}
	// matches reports whether verdict v falls inside fault f's window and
	// footprint (any blamed AS accepted — agreement is graded later).
	matches := func(v verdict, f faults.Fault) bool {
		return v.bucket >= f.Start && v.bucket < f.End()+slack && onPath(f.AS, v.middle)
	}

	for _, f := range sched.Faults {
		if !gradable(f) {
			continue
		}
		out := FaultOutcome{FaultID: f.ID, AS: f.AS, Start: f.Start}
		blamed := make(map[netmodel.ASN]bool)
		for q := range byProv {
			votes := make(map[netmodel.ASN]int)
			for _, v := range byProv[q] {
				if !matches(v, f) {
					continue
				}
				if v.as != f.AS {
					// A different AS may be the right answer for a
					// different concurrently-active fault whose window and
					// footprint also cover this verdict; credit it there.
					explained := false
					for _, g := range sched.Faults {
						if g.ID != f.ID && gradable(g) && g.AS == v.as && matches(v, g) {
							explained = true
							break
						}
					}
					if explained {
						continue
					}
				}
				votes[v.as]++
			}
			if len(votes) == 0 {
				continue
			}
			// The provider's verdict for the fault is its majority blame
			// across the fault's job windows (ties break to the lower ASN
			// for determinism).
			var primary netmodel.ASN
			best := -1
			for as, n := range votes {
				if n > best || (n == best && as < primary) {
					primary, best = as, n
				}
			}
			out.Localizers = append(out.Localizers, netmodel.ProviderID(q))
			blamed[primary] = true
		}
		for as := range blamed {
			out.BlamedASes = append(out.BlamedASes, as)
		}
		sort.Slice(out.BlamedASes, func(i, j int) bool { return out.BlamedASes[i] < out.BlamedASes[j] })
		out.Localized = len(out.Localizers) >= 1 && len(out.BlamedASes) == 1 && out.BlamedASes[0] == f.AS
		out.CrossConfirmed = out.Localized && len(out.Localizers) >= 2
		if out.CrossConfirmed {
			c.CrossConfirmed++
		}
		if len(out.Localizers) > 0 && !out.Localized {
			c.Disagreements++
		}
		c.Faults = append(c.Faults, out)
	}
	return c
}

// SeedMiddleFaults builds n non-overlapping unscoped forward middle-AS
// faults on the transit/tier-1 ASes most shared across providers: ASes are
// ranked by how many providers' primary-attachment paths traverse them
// (descending), then by total path count (descending), then by ASN for
// determinism. Faults start at firstStart and follow every 'every'
// buckets, each lasting dur buckets with extraMS of injected latency.
// These are exactly the incidents Grade expects every provider to see.
func SeedMiddleFaults(w *topology.World, n int, firstStart, every, dur netmodel.Bucket, extraMS float64) []faults.Fault {
	type share struct {
		as    netmodel.ASN
		provs map[netmodel.ProviderID]bool
		paths int
	}
	byAS := make(map[netmodel.ASN]*share)
	for q := 0; q < w.NumProviders(); q++ {
		qq := netmodel.ProviderID(q)
		for _, pid := range w.Population(qq) {
			atts := w.AttachmentsFor(qq, pid)
			if len(atts) == 0 {
				continue
			}
			bp := w.Prefixes[pid].BGPPrefix
			for _, as := range w.InitialPath(atts[0].Cloud, bp).Middle {
				sh := byAS[as]
				if sh == nil {
					sh = &share{as: as, provs: make(map[netmodel.ProviderID]bool)}
					byAS[as] = sh
				}
				sh.provs[qq] = true
				sh.paths++
			}
		}
	}
	ranked := make([]*share, 0, len(byAS))
	for _, sh := range byAS {
		ranked = append(ranked, sh)
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if len(a.provs) != len(b.provs) {
			return len(a.provs) > len(b.provs)
		}
		if a.paths != b.paths {
			return a.paths > b.paths
		}
		return a.as < b.as
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	fs := make([]faults.Fault, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, faults.Fault{
			Kind:       faults.MiddleASFault,
			AS:         ranked[i].as,
			ScopeCloud: faults.NoCloud,
			Start:      firstStart + netmodel.Bucket(i)*every,
			Duration:   dur,
			ExtraMS:    extraMS,
			Desc:       fmt.Sprintf("multicloud seeded middle fault on AS%d", ranked[i].as),
		})
	}
	return fs
}
