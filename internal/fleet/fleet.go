// Package fleet simulates an edge-aggregating agent fleet: the scalable
// alternative to the centralized telemetry pipe BlameIt's Algorithm 1
// assumes. Agents own disjoint contiguous slices of the client prefix
// space, pre-aggregate their slice's observations into per-bucket
// quartet.Partial batches at the edge, and ship them to a Collector that
// gathers them — deduplicated by (agent, epoch, seq) — into the per-bucket
// quartet.Aggregate whose PartialID-ordered cells the pipeline reads.
//
// Delivery is where a real fleet hurts, so the Collector injects the
// fleet fault classes off the existing chaos configuration: whole-partial
// loss (Config.DropBatchProb), delivery lag (LateProb/LateMaxDelay,
// lagged partials arrive after their bucket sealed and are quarantined as
// stale), duplication (DuplicateProb, absorbed by dedup), agent churn
// (AgentChurnProb, restarts that lose the in-flight partial and bump the
// agent's epoch), and transient collector reads (TransientErrProb). Every
// injected fault is counted so tests can demand the books balance.
//
// On a fault-free configuration the fleet is a reshuffling of the
// centralized stream that changes nothing: slices partition the prefix
// space, the aggregate walks agents in slice order, and its cells
// reconstruct byte-for-byte the observation stream the simulator would
// have emitted centrally — at any agent count and any delivery order.
package fleet

import (
	"context"
	"fmt"
	"sort"

	"blameit/internal/chaos"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/parallel"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/trace"
)

// Agent is one edge vantage point: it owns the prefixes [Lo, Hi) and
// pre-aggregates their observations into one Partial per bucket.
type Agent struct {
	ID int
	// Epoch increments on every restart; Seq restarts with it. The pair
	// scopes deduplication, so a reborn agent reusing sequence numbers is
	// never confused with its pre-restart deliveries.
	Epoch int
	// Lo, Hi delimit the agent's half-open prefix slice.
	Lo, Hi int

	sim    *sim.Simulator
	seq    int64
	obsBuf []trace.Observation
}

// Restart models an agent crash/redeploy: the epoch bumps and the
// sequence counter restarts. Whatever the agent was about to deliver is
// the caller's loss to account.
func (a *Agent) Restart() {
	a.Epoch++
	a.seq = 0
}

// Collect generates and pre-aggregates the agent's slice of bucket b:
// one Partial with cells in prefix-ascending order.
func (a *Agent) Collect(b netmodel.Bucket) *quartet.Partial {
	a.seq++
	p := quartet.NewPartial(quartet.PartialID{Agent: a.ID, Epoch: a.Epoch, Seq: a.seq}, b)
	a.obsBuf = a.sim.ObservationsRange(b, a.Lo, a.Hi, a.obsBuf[:0])
	for _, o := range a.obsBuf {
		p.Observe(o)
	}
	return p
}

// Fleet is a set of agents whose slices partition the prefix space in
// ascending-ID order.
type Fleet struct {
	Agents []*Agent
}

// New splits the simulator's prefix space across at most `agents`
// contiguous slices (tiny worlds get fewer). The shard boundaries depend
// only on (prefix count, agent count), so a fleet is reproducible.
func New(s *sim.Simulator, agents int) *Fleet {
	if agents < 1 {
		agents = 1
	}
	shards := parallel.Shards(len(s.World.Prefixes), agents)
	f := &Fleet{}
	for i, sh := range shards {
		f.Agents = append(f.Agents, &Agent{ID: i, Lo: sh.Lo, Hi: sh.Hi, sim: s})
	}
	return f
}

// Stats counts the delivery fabric's outcomes, cumulatively. The books
// always balance: Attempted = ChurnDropped + Dropped + Held + Merged,
// Duplicated = Deduped, and Held = Stale + InFlight().
type Stats struct {
	// Attempted is agent-buckets: one potential partial per agent per
	// collected bucket.
	Attempted int64
	// Merged is partials added to their bucket's aggregate.
	Merged int64
	// ChurnEvents is agent restarts; ChurnDropped the partials they lost.
	ChurnEvents, ChurnDropped int64
	// Dropped is partials lost outright in delivery.
	Dropped int64
	// Held is partials delayed in flight; Stale the ones that arrived
	// after their bucket was already sealed (quarantined, content lost).
	Held, Stale int64
	// Duplicated is extra delivered copies; Deduped the copies rejected
	// by (agent, epoch, seq) dedup.
	Duplicated, Deduped int64
	// TransientErrs is injected retryable collector read failures.
	TransientErrs int64
}

// Collector gathers the fleet's delivered partials into per-bucket
// aggregates and serves each to the pipeline as its observation stream in
// PartialID order (it implements ingest.ObservationSource); colliding
// cells are the pipeline's quarantine's to refuse. Not safe for concurrent
// use — the pipeline reads buckets serially.
type Collector struct {
	fleet *Fleet
	cfg   chaos.Config
	dice  chaos.Decider

	pending  map[netmodel.Bucket]*quartet.Aggregate
	inflight map[netmodel.Bucket][]*quartet.Partial
	// frontier is the lowest unread bucket: everything below it is
	// sealed, and a lagged partial landing below it is stale.
	frontier    netmodel.Bucket
	erredBucket netmodel.Bucket
	erredPrimed bool
	stats       Stats

	reg                              *metrics.Registry
	mMerged, mDropped, mHeld, mStale *metrics.Counter
	mDeduped, mChurn, mTransient     *metrics.Counter
}

// NewCollector builds the delivery fabric between a fleet and the
// pipeline. A zero chaos.Config delivers perfectly.
func NewCollector(f *Fleet, cfg chaos.Config) *Collector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.LateMaxDelay < 1 {
		cfg.LateMaxDelay = 1
	}
	return &Collector{
		fleet:    f,
		cfg:      cfg,
		dice:     chaos.Decider{Seed: cfg.Seed},
		pending:  make(map[netmodel.Bucket]*quartet.Aggregate),
		inflight: make(map[netmodel.Bucket][]*quartet.Partial),
	}
}

// SetMetrics mirrors delivery outcomes into fleet.* counters, registered
// lazily on first event so fault-free snapshots stay unchanged.
func (c *Collector) SetMetrics(reg *metrics.Registry) { c.reg = reg }

func (c *Collector) count(handle **metrics.Counter, name string) {
	if c.reg == nil {
		return
	}
	if *handle == nil {
		*handle = c.reg.Counter(name)
	}
	(*handle).Inc()
}

// Stats returns the cumulative delivery accounting.
func (c *Collector) Stats() Stats { return c.stats }

// InFlight is the number of lagged partials not yet (re)delivered.
func (c *Collector) InFlight() int {
	n := 0
	for _, ps := range c.inflight {
		n += len(ps)
	}
	return n
}

// deliver routes one partial toward its bucket's aggregate: stale if the
// bucket already sealed, deduplicated if the ID is already in it.
func (c *Collector) deliver(p *quartet.Partial) {
	if p.Bucket < c.frontier {
		c.stats.Stale++
		c.count(&c.mStale, "fleet.partials.stale")
		return
	}
	agg := c.pending[p.Bucket]
	if agg == nil {
		agg = quartet.NewAggregate(p.Bucket)
		c.pending[p.Bucket] = agg
	}
	if agg.Add(p) {
		c.stats.Merged++
		c.count(&c.mMerged, "fleet.partials.merged")
	} else {
		c.stats.Deduped++
		c.count(&c.mDeduped, "fleet.partials.deduped")
	}
}

// ObservationsAt drives one bucket of the fleet: agents collect and
// pre-aggregate their slices, the delivery fabric applies its faults,
// lagged partials whose delivery time arrived are flushed, and the
// bucket's aggregate is sealed and its observations appended to
// buf — none when every partial of the bucket was lost.
func (c *Collector) ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	if err := ctx.Err(); err != nil {
		return buf, err
	}
	// Transient collector failure, rolled before any agent state advances
	// so the pipeline's retry re-reads an identical bucket.
	if c.cfg.TransientErrProb > 0 && !(c.erredPrimed && c.erredBucket == b) &&
		c.dice.Roll("fleet.transient", int64(b)) < c.cfg.TransientErrProb {
		c.erredBucket, c.erredPrimed = b, true
		c.stats.TransientErrs++
		c.count(&c.mTransient, "fleet.collector.transient_errs")
		return buf, ingest.Transient(fmt.Errorf("fleet: injected transient collector failure at bucket %d", b))
	}
	for _, ag := range c.fleet.Agents {
		c.stats.Attempted++
		if c.cfg.AgentChurnProb > 0 && c.dice.Roll("fleet.churn", int64(ag.ID), int64(b)) < c.cfg.AgentChurnProb {
			ag.Restart()
			c.stats.ChurnEvents++
			c.stats.ChurnDropped++
			c.count(&c.mChurn, "fleet.agent.churn")
			continue
		}
		part := ag.Collect(b)
		if c.cfg.DropBatchProb > 0 && c.dice.Roll("fleet.drop", int64(ag.ID), int64(b)) < c.cfg.DropBatchProb {
			c.stats.Dropped++
			c.count(&c.mDropped, "fleet.partials.dropped")
			continue
		}
		if c.cfg.LateProb > 0 && c.dice.Roll("fleet.lag", int64(ag.ID), int64(b)) < c.cfg.LateProb {
			delay := 1 + netmodel.Bucket(c.dice.Hash("fleet.lag", int64(ag.ID), int64(b))%uint64(c.cfg.LateMaxDelay))
			c.inflight[b+delay] = append(c.inflight[b+delay], part)
			c.stats.Held++
			c.count(&c.mHeld, "fleet.partials.held")
			continue
		}
		c.deliver(part)
		if c.cfg.DuplicateProb > 0 && c.dice.Roll("fleet.dup", int64(ag.ID), int64(b)) < c.cfg.DuplicateProb {
			c.stats.Duplicated++
			c.deliver(part)
		}
	}
	// Flush lagged partials whose delivery time arrived, in delivery-
	// bucket order for determinism. Their origin buckets sealed while
	// they were in flight, so deliver routes them to Stale.
	if len(c.inflight) > 0 {
		var due []netmodel.Bucket
		for k := range c.inflight {
			if k <= b {
				due = append(due, k)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		for _, k := range due {
			for _, p := range c.inflight[k] {
				c.deliver(p)
			}
			delete(c.inflight, k)
		}
	}
	agg := c.pending[b]
	delete(c.pending, b)
	c.frontier = b + 1
	if agg == nil {
		return buf, nil
	}
	return agg.Observations(buf), nil
}
