package server

import (
	"context"
	"slices"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/chaos"
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

// fleetDelivery feeds a fleet's partials through the daemon's own aggregate
// path, an ingestQueue under manual seal, with the fleet fault classes
// rolled per (seed, agent, bucket): agent churn (epoch bump, partial lost),
// partial drop, lagged delivery (pushed once due, after its bucket was
// read, so the quarantine rejects its cells as late) and duplication
// (refused by the queue's (agent, epoch, seq) dedup). It is the pipeline's
// ObservationSource: each bucket the pipeline asks for is delivered, sealed
// and read in turn.
type fleetDelivery struct {
	q        *ingestQueue
	fleet    *fleet.Fleet
	cfg      chaos.Config
	dice     chaos.Decider
	inflight map[netmodel.Bucket][]*quartet.Partial
	cells    []ingest.AggCell

	attempted, churnDropped, dropped, held, delivered int64
	duplicated, deduped, heldCells                    int64
}

func newFleetDelivery(f *fleet.Fleet, cfg chaos.Config) *fleetDelivery {
	return &fleetDelivery{
		q:        newIngestQueue(0, true),
		fleet:    f,
		cfg:      cfg,
		dice:     chaos.Decider{Seed: cfg.Seed},
		inflight: make(map[netmodel.Bucket][]*quartet.Partial),
	}
}

// push delivers one partial to the queue as its wire cells.
func (d *fleetDelivery) push(p *quartet.Partial) error {
	d.cells = ingest.AggCellsOf(p, d.cells[:0])
	adm, err := d.q.PushCells(d.cells)
	d.deduped += int64(adm.deduped)
	return err
}

// ObservationsAt delivers bucket b's partials, and the lagged ones now
// due, then seals b and reads it back from the queue.
func (d *fleetDelivery) ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	var deliver []*quartet.Partial
	for _, ag := range d.fleet.Agents {
		d.attempted++
		id, bb := int64(ag.ID), int64(b)
		if d.dice.Roll("fleet.churn", id, bb) < d.cfg.AgentChurnProb {
			ag.Restart()
			d.churnDropped++
			continue
		}
		part := ag.Collect(b)
		switch {
		case d.dice.Roll("fleet.drop", id, bb) < d.cfg.DropBatchProb:
			d.dropped++
		case d.dice.Roll("fleet.lag", id, bb) < d.cfg.LateProb:
			due := b + 1 + netmodel.Bucket(d.dice.Hash("fleet.lag", id, bb)%uint64(d.cfg.LateMaxDelay))
			d.inflight[due] = append(d.inflight[due], part)
			d.held++
			d.heldCells += int64(len(part.Cells))
		default:
			deliver = append(deliver, part)
			d.delivered++
			if d.dice.Roll("fleet.dup", id, bb) < d.cfg.DuplicateProb {
				deliver = append(deliver, part)
				d.duplicated++
			}
		}
	}
	var due []netmodel.Bucket
	for k := range d.inflight {
		if k <= b {
			due = append(due, k)
		}
	}
	slices.Sort(due)
	for _, k := range due {
		deliver = append(deliver, d.inflight[k]...)
		delete(d.inflight, k)
	}
	for _, p := range deliver {
		if err := d.push(p); err != nil {
			return buf, err
		}
	}
	d.q.SealThrough(b)
	return d.q.ObservationsAt(ctx, b, buf)
}

// inFlightCells counts the cells of lagged partials not yet pushed.
func (d *fleetDelivery) inFlightCells() int64 {
	var n int64
	for _, ps := range d.inflight {
		for _, p := range ps {
			n += int64(len(p.Cells))
		}
	}
	return n
}

// fleetArm is one arm of the fleet A/B run: the same world and incident
// schedule, with delivery either perfect or under the heavy chaos profile.
type fleetArm struct {
	pipe *pipeline.Pipeline
	del  *fleetDelivery
	reg  *metrics.Registry

	probed, degraded, localized int
	correct, wrong, graded      int
}

// runFleetArm drives a 1-warmup + N-day fleet-fed run through the queue,
// grading every active-phase verdict against simulator ground truth
// exactly like the centralized chaos harness does.
func runFleetArm(t *testing.T, ccfg chaos.Config, fs []faults.Fault, days, agents int) *fleetArm {
	t.Helper()
	w := topology.Generate(topology.SmallScale(), 42)
	horizon := netmodel.Bucket((days + 1) * netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 7)
	s := sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(99))

	cfg := pipeline.DefaultConfig()
	res := &fleetArm{reg: metrics.NewRegistry()}
	cfg.Metrics = res.reg
	res.del = newFleetDelivery(fleet.New(s, agents), ccfg)
	res.pipe = pipeline.New(pipeline.Deps{
		World:  s.World,
		Table:  s.Routes,
		Source: res.del,
		Prober: probe.NewEngine(s, cfg.ProbeNoiseMS),
	}, cfg)
	if err := res.pipe.Warmup(0, netmodel.BucketsPerDay); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	err := res.pipe.Run(netmodel.BucketsPerDay, horizon, func(rep *pipeline.Report) {
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

// TestFleetChaosEndToEnd is the fleet robustness headline, run on the
// daemon's aggregate path: a 7-day run where delivery loses, delays,
// duplicates, and churns agent partials under the heavy chaos profile,
// against a perfect-delivery control arm over the identical world and
// incident schedule. Every partial must be accounted for — delivered,
// churn-dropped, dropped, or held in flight — every duplicate refused by
// the queue's dedup, every held cell either quarantined as late or still
// in flight, and lost aggregates may cost localizations but never produce
// a wrong one.
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

	golden := runFleetArm(t, chaos.Config{Seed: 77}, fs, days, agents)
	hostile := runFleetArm(t, chaos.Heavy(1234), fs, days, agents)

	// --- Control arm sanity: perfect delivery, clean books. ---
	g := golden.del
	if g.delivered != g.attempted || g.churnDropped+g.dropped+g.held+g.duplicated+g.deduped != 0 {
		t.Errorf("control delivery books not clean: %+v", *g)
	}
	if n := golden.pipe.Quarantine().Total(); n != 0 {
		t.Errorf("control arm quarantined %d records", n)
	}
	if golden.graded == 0 || golden.correct == 0 {
		t.Fatalf("control arm graded nothing (graded=%d correct=%d) — test world too quiet", golden.graded, golden.correct)
	}

	// --- Every partial must be accounted for, exactly. ---
	d := hostile.del
	if d.churnDropped == 0 || d.dropped == 0 || d.held == 0 || d.duplicated == 0 {
		t.Fatalf("heavy profile injected nothing: %+v", *d)
	}
	if d.attempted != d.churnDropped+d.dropped+d.held+d.delivered {
		t.Errorf("partial books off: attempted %d != churn %d + dropped %d + held %d + delivered %d",
			d.attempted, d.churnDropped, d.dropped, d.held, d.delivered)
	}
	if d.duplicated != d.deduped {
		t.Errorf("duplicated %d partials but the queue deduplicated %d — a duplicate slipped into a bucket", d.duplicated, d.deduped)
	}
	// A lagged partial lands after its bucket was read: the queue holds its
	// cells and serves them with the next read, where the quarantine
	// rejects them as late. Nothing else reaches the quarantine.
	quar := hostile.pipe.Quarantine()
	late, inflight := quar.Count(ingest.ReasonLate), d.inFlightCells()
	if late == 0 || d.heldCells != late+inflight {
		t.Errorf("held %d cells != %d quarantined late + %d in flight", d.heldCells, late, inflight)
	}
	if other := quar.Total() - late; other != 0 {
		t.Errorf("fleet faults put %d cells into the quarantine under reasons other than late (%s)", other, quar)
	}
	if got, ok := hostile.reg.Snapshot().Counter("ingest.quarantine.late"); !ok || got != late {
		t.Errorf("counter ingest.quarantine.late = %d (ok=%v), want %d", got, ok, late)
	}
	// Churn is epoch-scoped: restarts must be visible on the agents
	// themselves, so reborn sequence numbers can never collide.
	var epochs int64
	for _, ag := range d.fleet.Agents {
		epochs += int64(ag.Epoch)
	}
	if epochs != d.churnDropped {
		t.Errorf("agent epochs sum to %d, delivery counted %d churn events", epochs, d.churnDropped)
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
	t.Logf("delivery books: attempted=%d delivered=%d churn=%d dropped=%d held=%d (%d cells: %d late, %d in flight) duplicated=%d deduped=%d",
		d.attempted, d.delivered, d.churnDropped, d.dropped, d.held, d.heldCells, late, inflight, d.duplicated, d.deduped)
}
