// Package fleet simulates an edge-aggregating agent fleet: the scalable
// alternative to the centralized telemetry pipe BlameIt's Algorithm 1
// assumes. Agents own disjoint contiguous slices of the client prefix
// space and pre-aggregate their slice's observations into one
// quartet.Partial per bucket, under an (agent, epoch, seq) identity. The
// fleet is the producer side only: its partials reach the pipeline the way
// any edge agent's do, as ingest.AggCell JSONL on the daemon's
// POST /v1/aggregates, whose ingest queue gathers each bucket's partials
// in a quartet.Aggregate (DESIGN.md §13).
//
// On fault-free delivery the fleet is a reshuffling of the centralized
// stream that changes nothing: slices partition the prefix space, the
// aggregate walks agents in slice order, and its cells reconstruct
// byte-for-byte the observation stream the simulator would have emitted
// centrally — at any agent count and any delivery order.
package fleet

import (
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
