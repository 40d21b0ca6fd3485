package quartet

import (
	"fmt"
	"math"
	"sort"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// This file is the mergeable half of the quartet layer: the per-bucket
// partial aggregates an edge-aggregating agent fleet ships upward instead
// of raw observations, and the merged view a collector serves the pipeline.
//
// The design keeps every classification-relevant field byte-exact under
// any merge tree and any delivery order:
//
//   - A Partial is one agent's pre-aggregated batch for one bucket,
//     identified by (agent, epoch, seq). Its cells keep the contribution's
//     MeanRTT directly (not a sum/count pair — (m*s)/s is not bit-exact in
//     IEEE arithmetic), so a cell reconstructs its source observation
//     exactly.
//   - Aggregate.Merge is a set union of partials, deduplicated by
//     PartialID. Union is associative, commutative, and idempotent by
//     construction, and every derived view (Cells, Observations, Sketch)
//     folds the final set in canonical PartialID order — so two merge
//     trees over the same partials yield identical bytes, not merely
//     values within tolerance.
//   - Agents own disjoint contiguous slices of the prefix space, so on
//     fault-free traces every cell has a single contributor and the
//     canonical fold concatenates per-agent cell runs in prefix order —
//     exactly the order the centralized simulator emits. Colliding cells
//     (possible only with hostile or misconfigured input) combine by
//     sample-weighted mean; the supported deployments never exercise it.

// PartialID identifies one delivered partial aggregate. Epoch increments
// when an agent restarts (churn) and Seq restarts with it, so a reborn
// agent reusing sequence numbers is never deduplicated against its
// pre-restart deliveries.
type PartialID struct {
	Agent int   `json:"agent"`
	Epoch int   `json:"epoch"`
	Seq   int64 `json:"seq"`
}

// Less orders PartialIDs by (Agent, Epoch, Seq) — the canonical fold
// order of every merged view.
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
// the mergeable tallies. MeanRTT is the contribution's exact mean (the
// weighted combination only triggers on colliding contributors).
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

// combineCell merges a colliding contribution into dst by sample-weighted
// mean. Only hostile input reaches it: the supported deployments give
// every cell a single contributor (disjoint prefix ownership), and the
// centralized path's quarantine rejects duplicate keys before aggregation.
func combineCell(dst *Cell, c Cell) {
	ts := dst.Samples + c.Samples
	if ts > 0 {
		dst.MeanRTT = (dst.MeanRTT*float64(dst.Samples) + c.MeanRTT*float64(c.Samples)) / float64(ts)
	}
	dst.Samples = ts
	dst.Clients += c.Clients
}

// SketchBins is the fixed bin count of the wire latency sketch.
const SketchBins = 64

// sketchLoMS is the lower edge of bin 0; with 4 bins per octave the 64
// bins cover [0.5ms, 32s), far beyond any plausible wide-area RTT.
const sketchLoMS = 0.5

// LatencySketch is the bounded-memory latency distribution a partial
// carries: a fixed log-spaced histogram plus exact count/sum/min/max.
// Unlike the P² estimators (stats.P2Quantile), whose marker state is not
// mergeable, elementwise bin addition makes this sketch exactly mergeable
// in any order — which is why it, and not P², rides the wire. The P²
// machinery still serves the fleet: each agent keeps a
// stats.StreamingSummary over its lifetime RTT stream for diagnostics.
//
// The zero value is an empty sketch. The sketch is advisory (operator
// dashboards, impact triage); classification never reads it.
type LatencySketch struct {
	N        int64
	Sum      float64
	Min, Max float64
	Counts   [SketchBins]int64
}

// sketchBin maps an RTT to its histogram bin.
func sketchBin(ms float64) int {
	if !(ms > sketchLoMS) { // NaN and sub-floor values land in bin 0
		return 0
	}
	i := int(4 * math.Log2(ms/sketchLoMS))
	if i < 0 {
		return 0
	}
	if i >= SketchBins {
		return SketchBins - 1
	}
	return i
}

// Add records one RTT. Non-finite values are ignored — the quarantine
// rejects them downstream, and a NaN would poison Sum forever.
func (s *LatencySketch) Add(ms float64) {
	if math.IsNaN(ms) || math.IsInf(ms, 0) {
		return
	}
	if s.N == 0 || ms < s.Min {
		s.Min = ms
	}
	if s.N == 0 || ms > s.Max {
		s.Max = ms
	}
	s.N++
	s.Sum += ms
	s.Counts[sketchBin(ms)]++
}

// Merge folds another sketch in. Counts and N are exact under any merge
// order; Sum is float addition and therefore exact only when folded in a
// canonical order, which Aggregate.Sketch guarantees.
func (s *LatencySketch) Merge(o *LatencySketch) {
	if o.N == 0 {
		return
	}
	if s.N == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.N == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	s.N += o.N
	s.Sum += o.Sum
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
}

// Mean returns the exact mean RTT, zero when empty.
func (s *LatencySketch) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Quantile estimates the q'th quantile from the histogram: the geometric
// midpoint of the bin holding the target rank, clamped to the exact
// [Min, Max] envelope. Resolution is a quarter octave (~19%).
func (s *LatencySketch) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.N-1))
	var cum int64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum > rank {
			lo := sketchLoMS * math.Exp2(float64(i)/4)
			hi := sketchLoMS * math.Exp2(float64(i+1)/4)
			v := math.Sqrt(lo * hi)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Partial is one agent's pre-aggregated batch for one bucket: the unit of
// delivery, deduplication, and loss. Cells stay in insertion order — for
// an agent walking its prefix slice that is prefix-ascending order, which
// is what makes the canonical fold reproduce the centralized stream.
//
// A Partial handed to Aggregate.Add is owned by the aggregate from then
// on and must not be mutated.
type Partial struct {
	ID     PartialID
	Bucket netmodel.Bucket
	Cells  []Cell
	// BadCells tallies cells the edge classified bad against its local
	// targets (advisory; the analytics cluster is the classifier of
	// record and re-derives badness from MeanRTT).
	BadCells int
	Sketch   LatencySketch

	index map[Key]int
}

// NewPartial creates an empty partial for one bucket.
func NewPartial(id PartialID, b netmodel.Bucket) *Partial {
	return &Partial{ID: id, Bucket: b}
}

// Reset re-arms a partial for reuse, keeping its backing storage.
func (p *Partial) Reset(id PartialID, b netmodel.Bucket) {
	p.ID, p.Bucket = id, b
	p.Cells = p.Cells[:0]
	p.BadCells = 0
	p.Sketch = LatencySketch{}
	clear(p.index)
}

// Observe folds one observation into the partial. Observations sharing a
// key combine by weighted mean; the supported producers (the quarantined
// centralized stream, an agent's disjoint prefix slice) never collide.
func (p *Partial) Observe(o trace.Observation) {
	p.Sketch.Add(o.MeanRTT)
	k := KeyOf(o)
	if i, ok := p.index[k]; ok {
		combineCell(&p.Cells[i], Cell{Key: k, Samples: o.Samples, MeanRTT: o.MeanRTT, Clients: o.Clients})
		return
	}
	if p.index == nil {
		p.index = make(map[Key]int)
	}
	p.index[k] = len(p.Cells)
	p.Cells = append(p.Cells, Cell{Key: k, Samples: o.Samples, MeanRTT: o.MeanRTT, Clients: o.Clients})
}

// ObserveClassified is Observe plus the edge badness tally against the
// agent's local target for the quartet.
func (p *Partial) ObserveClassified(o trace.Observation, target float64) {
	if q := Classify(o, target); q.Enough && q.Bad {
		p.BadCells++
	}
	p.Observe(o)
}

// Samples returns the partial's total sample count.
func (p *Partial) Samples() int {
	n := 0
	for i := range p.Cells {
		n += p.Cells[i].Samples
	}
	return n
}

// Aggregate is the merged per-bucket view: a deduplicated set of partials
// plus the canonical fold of their cells. Merge is set union, so it is
// associative, commutative, and — via (agent, epoch, seq) dedup —
// idempotent; every derived view folds the set in PartialID order, making
// the result independent of both delivery order and merge tree shape.
type Aggregate struct {
	Bucket netmodel.Bucket
	// Deduped counts partials rejected because their ID was already
	// folded in (chaos duplication, at-least-once delivery).
	Deduped int64

	parts []*Partial
	ids   map[PartialID]struct{}

	folded  []Cell
	foldIdx map[Key]int
	clean   bool
}

// NewAggregate creates an empty aggregate for one bucket.
func NewAggregate(b netmodel.Bucket) *Aggregate {
	return &Aggregate{Bucket: b, ids: make(map[PartialID]struct{})}
}

// Reset re-arms the aggregate for a new bucket, keeping backing storage.
// The previously added partials are released, not reused.
func (a *Aggregate) Reset(b netmodel.Bucket) {
	a.Bucket = b
	a.Deduped = 0
	a.parts = a.parts[:0]
	clear(a.ids)
	a.folded = a.folded[:0]
	clear(a.foldIdx)
	a.clean = false
}

// Add folds one partial into the aggregate, reporting whether it was new.
// A partial whose ID is already present is rejected (and counted in
// Deduped) — duplicate-safe delivery is this one check. The aggregate
// takes ownership of the partial.
func (a *Aggregate) Add(p *Partial) bool {
	if p.Bucket != a.Bucket {
		panic(fmt.Sprintf("quartet: Aggregate.Add bucket %d into aggregate for bucket %d", p.Bucket, a.Bucket))
	}
	if _, dup := a.ids[p.ID]; dup {
		a.Deduped++
		return false
	}
	if a.ids == nil {
		a.ids = make(map[PartialID]struct{})
	}
	a.ids[p.ID] = struct{}{}
	a.parts = append(a.parts, p)
	a.clean = false
	return true
}

// Merge folds another aggregate for the same bucket in: the union of the
// two partial sets, deduplicated by ID. Since union is associative and
// commutative and every view folds the final set in canonical order,
// merge trees of any shape produce byte-identical results.
func (a *Aggregate) Merge(o *Aggregate) {
	if o == nil || o == a {
		return
	}
	if o.Bucket != a.Bucket {
		panic(fmt.Sprintf("quartet: Aggregate.Merge bucket %d into aggregate for bucket %d", o.Bucket, a.Bucket))
	}
	for _, p := range o.parts {
		a.Add(p)
	}
}

// Partials returns the number of distinct partials folded in.
func (a *Aggregate) Partials() int { return len(a.parts) }

// fold materializes the canonical cell list: partials sorted by ID, each
// partial's cells in insertion order, colliding keys combined into the
// first occurrence. The fold is cached until the partial set changes.
func (a *Aggregate) fold() {
	if a.clean {
		return
	}
	sort.SliceStable(a.parts, func(i, j int) bool { return a.parts[i].ID.Less(a.parts[j].ID) })
	a.folded = a.folded[:0]
	if len(a.parts) == 1 {
		// The trivial one-agent aggregation (the centralized path): the
		// partial's cells already are the canonical list.
		a.clean = true
		return
	}
	if a.foldIdx == nil {
		a.foldIdx = make(map[Key]int)
	} else {
		clear(a.foldIdx)
	}
	for _, p := range a.parts {
		for _, c := range p.Cells {
			if i, ok := a.foldIdx[c.Key]; ok {
				combineCell(&a.folded[i], c)
				continue
			}
			a.foldIdx[c.Key] = len(a.folded)
			a.folded = append(a.folded, c)
		}
	}
	a.clean = true
}

// Cells returns the merged cells in canonical order. The slice is owned
// by the aggregate and valid until the next mutation.
func (a *Aggregate) Cells() []Cell {
	a.fold()
	if len(a.parts) == 1 {
		return a.parts[0].Cells
	}
	return a.folded
}

// Observations reconstructs the merged observation stream in canonical
// order, appending to buf. On single-contributor cells (every supported
// deployment) the reconstruction is exact: an agent fleet over disjoint
// prefix slices reproduces the centralized stream byte-for-byte.
func (a *Aggregate) Observations(buf []trace.Observation) []trace.Observation {
	for _, c := range a.Cells() {
		buf = append(buf, c.Observation(a.Bucket))
	}
	return buf
}

// Samples returns the total sample count across merged cells.
func (a *Aggregate) Samples() int {
	n := 0
	for _, c := range a.Cells() {
		n += c.Samples
	}
	return n
}

// BadCells returns the summed edge badness tallies of the merged
// partials (advisory; see Partial.BadCells).
func (a *Aggregate) BadCells() int {
	a.fold()
	n := 0
	for _, p := range a.parts {
		n += p.BadCells
	}
	return n
}

// Sketch returns the merged latency sketch, folded in canonical partial
// order so even its float Sum is identical across merge trees.
func (a *Aggregate) Sketch() LatencySketch {
	a.fold()
	var s LatencySketch
	for _, p := range a.parts {
		s.Merge(&p.Sketch)
	}
	return s
}
