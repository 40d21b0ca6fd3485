package quartet

import (
	"fmt"
	"slices"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// This file is the edge half of the quartet layer: the per-bucket
// partial aggregates an edge-aggregating agent fleet ships upward instead
// of raw observations, and the per-bucket set the daemon's ingest queue
// serves the pipeline. It holds exactly what crosses the wire
// (ingest.AggCell): per quartet a sample count, a mean RTT and a client
// count, under a partial identity.
//
//   - A Partial is one agent's pre-aggregated batch for one bucket,
//     identified by (agent, epoch, seq). Its cells keep the contribution's
//     MeanRTT directly (not a sum/count pair — (m*s)/s is not bit-exact in
//     IEEE arithmetic), so a cell reconstructs its source observation
//     exactly.
//   - An Aggregate is a set of partials deduplicated by PartialID and read
//     in PartialID order; its views are the partials' cells concatenated in
//     that order. Delivery order and redelivery therefore cannot change a
//     byte of what the pipeline reads. The daemon's ingest queue gathers
//     each bucket's partials from POST /v1/aggregates in one.
//   - Agents own disjoint contiguous slices of the prefix space, so on
//     fault-free traces the concatenation walks per-agent cell runs in
//     prefix order — exactly the order the centralized simulator emits.
//   - Nothing here resolves a collision. Two cells claiming one quartet
//     (hostile or misconfigured input only) both reach the pipeline, where
//     ingest.Quarantine keeps the first and counts the other a duplicate.

// PartialID identifies one delivered partial aggregate. Epoch increments
// when an agent restarts (churn) and Seq restarts with it, so a reborn
// agent reusing sequence numbers is never deduplicated against its
// pre-restart deliveries.
type PartialID struct {
	Agent int   `json:"agent"`
	Epoch int   `json:"epoch"`
	Seq   int64 `json:"seq"`
}

// Less orders PartialIDs by (Agent, Epoch, Seq) — the order every
// aggregate view walks its partials in.
func (id PartialID) Less(o PartialID) bool {
	if id.Agent != o.Agent {
		return id.Agent < o.Agent
	}
	if id.Epoch != o.Epoch {
		return id.Epoch < o.Epoch
	}
	return id.Seq < o.Seq
}

// Cell is one quartet's aggregate within a bucket: the spatial key plus
// the tallies the passive phase reads.
type Cell struct {
	Key     Key
	Samples int
	MeanRTT float64
	Clients int
}

// Observation reconstructs the observation a cell aggregates, exactly:
// a trivial one-agent aggregation round-trips byte-identically.
func (c Cell) Observation(b netmodel.Bucket) trace.Observation {
	return trace.Observation{
		Prefix:  c.Key.Prefix,
		Cloud:   c.Key.Cloud,
		Device:  c.Key.Device,
		Bucket:  b,
		Samples: c.Samples,
		MeanRTT: c.MeanRTT,
		Clients: c.Clients,
	}
}

// Partial is one agent's pre-aggregated batch for one bucket: the unit of
// delivery, deduplication, and loss. Cells stay in insertion order — for
// an agent walking its prefix slice that is prefix-ascending order, which
// is what makes the aggregate reproduce the centralized stream.
//
// A Partial handed to Aggregate.Add is owned by the aggregate from then
// on and must not be mutated.
type Partial struct {
	ID     PartialID
	Bucket netmodel.Bucket
	Cells  []Cell
}

// NewPartial creates an empty partial for one bucket.
func NewPartial(id PartialID, b netmodel.Bucket) *Partial {
	return &Partial{ID: id, Bucket: b}
}

// Observe appends one observation as a cell. The supported producers (the
// quarantined centralized stream, an agent's disjoint prefix slice) hand
// each quartet over once; a repeated key stays a second cell for the
// pipeline's quarantine to refuse.
func (p *Partial) Observe(o trace.Observation) {
	p.Cells = append(p.Cells, Cell{Key: KeyOf(o), Samples: o.Samples, MeanRTT: o.MeanRTT, Clients: o.Clients})
}

// Aggregate is one bucket's delivered partials: a set deduplicated by
// (agent, epoch, seq) and read in PartialID order, so its views do not
// depend on delivery order or on how often a partial was redelivered.
//
// Add is amortised O(1) whatever order partials arrive in — one request
// body can carry hundreds of thousands of them — and a read sorts once
// (linear when they arrived in order). Reads therefore mutate the
// aggregate; like Add, they need the caller's synchronization.
type Aggregate struct {
	Bucket netmodel.Bucket

	parts []*Partial             // arrival order until a read sorts it
	ids   map[PartialID]struct{} // the IDs in parts
}

// NewAggregate creates an empty aggregate for one bucket.
func NewAggregate(b netmodel.Bucket) *Aggregate {
	return &Aggregate{Bucket: b, ids: make(map[PartialID]struct{})}
}

// Add puts one partial into the set, reporting whether it was new. A
// partial whose ID is already present is rejected — duplicate-safe
// delivery is this one check. The aggregate takes ownership of the
// partial.
func (a *Aggregate) Add(p *Partial) bool {
	if p.Bucket != a.Bucket {
		panic(fmt.Sprintf("quartet: Aggregate.Add bucket %d into aggregate for bucket %d", p.Bucket, a.Bucket))
	}
	if _, dup := a.ids[p.ID]; dup {
		return false
	}
	a.ids[p.ID] = struct{}{}
	a.parts = append(a.parts, p)
	return true
}

// inOrder sorts the partials into ascending PartialID order and returns
// them.
func (a *Aggregate) inOrder() []*Partial {
	slices.SortFunc(a.parts, func(x, y *Partial) int {
		switch {
		case x.ID.Less(y.ID):
			return -1
		case y.ID.Less(x.ID):
			return 1
		}
		return 0
	})
	return a.parts
}

// Partials returns the partials in PartialID order. They stay the
// aggregate's.
func (a *Aggregate) Partials() []*Partial { return a.inOrder() }

// Cells returns the partials' cells concatenated in PartialID order.
func (a *Aggregate) Cells() []Cell {
	n := 0
	for _, p := range a.inOrder() {
		n += len(p.Cells)
	}
	cells := make([]Cell, 0, n)
	for _, p := range a.parts {
		cells = append(cells, p.Cells...)
	}
	return cells
}

// Observations appends the observation stream the cells reconstruct, in
// the order of Cells, to buf. An agent fleet over disjoint prefix slices
// reproduces the centralized stream byte-for-byte.
func (a *Aggregate) Observations(buf []trace.Observation) []trace.Observation {
	for _, p := range a.inOrder() {
		for _, c := range p.Cells {
			buf = append(buf, c.Observation(a.Bucket))
		}
	}
	return buf
}
