package quartet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// mkObs fabricates a deterministic observation for (prefix, cloud).
func mkObs(p, c, b int, r *rand.Rand) trace.Observation {
	return trace.Observation{
		Prefix:  netmodel.PrefixID(p),
		Cloud:   netmodel.CloudID(c),
		Device:  netmodel.DeviceClass(p % 3),
		Bucket:  netmodel.Bucket(b),
		Samples: 5 + r.Intn(60),
		MeanRTT: 20 + 200*r.Float64(),
		Clients: 1 + r.Intn(20),
	}
}

// mkPartials builds n partials over disjoint contiguous prefix slices —
// the supported fleet deployment — for one bucket.
func mkPartials(t *testing.T, n, prefixes, bucket int, seed int64) []*Partial {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]*Partial, n)
	per := (prefixes + n - 1) / n
	for i := range out {
		out[i] = NewPartial(PartialID{Agent: i, Epoch: 0, Seq: int64(bucket)}, netmodel.Bucket(bucket))
		lo, hi := i*per, (i+1)*per
		if hi > prefixes {
			hi = prefixes
		}
		for p := lo; p < hi; p++ {
			for c := 0; c < 2; c++ {
				out[i].ObserveClassified(mkObs(p, c, bucket, r), 80)
			}
		}
	}
	return out
}

// snapshot captures every externally visible view of an aggregate.
type aggSnapshot struct {
	cells   []Cell
	obs     []trace.Observation
	samples int
	bad     int
	sketch  LatencySketch
	parts   int
	deduped int64
}

func snap(a *Aggregate) aggSnapshot {
	return aggSnapshot{
		cells:   append([]Cell(nil), a.Cells()...),
		obs:     a.Observations(nil),
		samples: a.Samples(),
		bad:     a.BadCells(),
		sketch:  a.Sketch(),
		parts:   a.Partials(),
		deduped: a.Deduped,
	}
}

// TestMergeCommutativeAnyDeliveryOrder adds the same partial set in many
// shuffled orders and demands byte-identical views every time.
func TestMergeCommutativeAnyDeliveryOrder(t *testing.T) {
	parts := mkPartials(t, 7, 100, 42, 1)
	base := NewAggregate(42)
	for _, p := range parts {
		base.Add(p)
	}
	want := snap(base)
	if want.parts != 7 || len(want.cells) == 0 {
		t.Fatalf("base aggregate parts=%d cells=%d", want.parts, len(want.cells))
	}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]*Partial(nil), parts...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a := NewAggregate(42)
		for _, p := range shuffled {
			a.Add(p)
		}
		if got := snap(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled delivery changed the merged view", trial)
		}
	}
}

// TestMergeAssociativeAnyTree merges the partial set under different
// grouping trees — left fold, right fold, balanced, and random
// two-aggregate unions — and demands byte-identical views.
func TestMergeAssociativeAnyTree(t *testing.T) {
	parts := mkPartials(t, 8, 64, 10, 3)
	single := func(ps []*Partial) *Aggregate {
		a := NewAggregate(10)
		for _, p := range ps {
			a.Add(p)
		}
		return a
	}
	want := snap(single(parts))

	// Balanced tree of pairwise merges.
	var level []*Aggregate
	for _, p := range parts {
		level = append(level, single([]*Partial{p}))
	}
	for len(level) > 1 {
		var next []*Aggregate
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				level[i].Merge(level[i+1])
			}
			next = append(next, level[i])
		}
		level = next
	}
	if got := snap(level[0]); !reflect.DeepEqual(got, want) {
		t.Fatal("balanced merge tree changed the merged view")
	}

	// Random split points: (A..k) merged into (k..Z) and vice versa.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		k := 1 + r.Intn(len(parts)-1)
		left, right := single(parts[:k]), single(parts[k:])
		if trial%2 == 0 {
			left.Merge(right)
			if got := snap(left); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: left.Merge(right) diverged", trial)
			}
		} else {
			right.Merge(left)
			if got := snap(right); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: right.Merge(left) diverged", trial)
			}
		}
	}
}

// TestMergeIdempotentUnderDedup redelivers partials (and whole
// aggregates) and demands the merged view is unchanged with every extra
// copy counted.
func TestMergeIdempotentUnderDedup(t *testing.T) {
	parts := mkPartials(t, 4, 40, 7, 5)
	a := NewAggregate(7)
	for _, p := range parts {
		if !a.Add(p) {
			t.Fatal("first delivery rejected")
		}
	}
	want := snap(a)
	for i, p := range parts {
		if a.Add(p) {
			t.Fatalf("duplicate partial %d accepted", i)
		}
	}
	b := NewAggregate(7)
	for _, p := range parts {
		b.Add(p)
	}
	a.Merge(b) // every partial already present
	a.Merge(a) // self-merge is a no-op
	got := snap(a)
	if got.deduped != int64(len(parts))*2 {
		t.Fatalf("Deduped = %d, want %d", got.deduped, len(parts)*2)
	}
	want.deduped = got.deduped
	if !reflect.DeepEqual(got, want) {
		t.Fatal("redelivery changed the merged view")
	}
	// A restarted agent's partial (same agent+seq, bumped epoch) is NOT a
	// duplicate: epoch scopes the dedup.
	reborn := NewPartial(PartialID{Agent: 0, Epoch: 1, Seq: parts[0].ID.Seq}, 7)
	if !a.Add(reborn) {
		t.Fatal("post-churn partial wrongly deduplicated")
	}
}

// TestTrivialAggregationRoundTrips checks the centralized path's
// contract: one partial built from a stream reconstructs it exactly.
func TestTrivialAggregationRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var obs []trace.Observation
	for p := 0; p < 50; p++ {
		obs = append(obs, mkObs(p, p%3, 12, r))
	}
	part := NewPartial(PartialID{}, 12)
	for _, o := range obs {
		part.Observe(o)
	}
	a := NewAggregate(12)
	a.Add(part)
	got := a.Observations(nil)
	if !reflect.DeepEqual(got, obs) {
		t.Fatal("one-agent aggregation did not reconstruct the stream byte-identically")
	}
	if a.Samples() != part.Samples() {
		t.Fatalf("Samples %d != %d", a.Samples(), part.Samples())
	}
}

// TestDisjointFleetMatchesCentralized checks the fleet contract at the
// aggregate level: disjoint agents' partials folded in any order
// reconstruct the same stream a single central partial holds.
func TestDisjointFleetMatchesCentralized(t *testing.T) {
	const prefixes = 96
	for _, agents := range []int{1, 4, 16} {
		r := rand.New(rand.NewSource(9))
		var stream []trace.Observation
		for p := 0; p < prefixes; p++ {
			for c := 0; c < 2; c++ {
				stream = append(stream, mkObs(p, c, 33, r))
			}
		}
		central := NewPartial(PartialID{}, 33)
		for _, o := range stream {
			central.Observe(o)
		}
		ca := NewAggregate(33)
		ca.Add(central)

		per := (prefixes + agents - 1) / agents
		fa := NewAggregate(33)
		order := rand.New(rand.NewSource(int64(agents))).Perm(agents)
		partsByAgent := make([]*Partial, agents)
		for i := 0; i < agents; i++ {
			partsByAgent[i] = NewPartial(PartialID{Agent: i, Seq: 33}, 33)
			lo, hi := i*per, (i+1)*per
			if hi > prefixes {
				hi = prefixes
			}
			for _, o := range stream {
				if int(o.Prefix) >= lo && int(o.Prefix) < hi {
					partsByAgent[i].Observe(o)
				}
			}
		}
		for _, i := range order {
			fa.Add(partsByAgent[i])
		}
		if !reflect.DeepEqual(fa.Observations(nil), ca.Observations(nil)) {
			t.Fatalf("%d agents: fleet fold != centralized stream", agents)
		}
	}
}

// TestCollidingCellsCombineWeighted exercises the hostile-input path:
// two partials contributing the same key combine by sample-weighted mean.
func TestCollidingCellsCombineWeighted(t *testing.T) {
	o1 := trace.Observation{Prefix: 1, Cloud: 0, Device: 1, Bucket: 5, Samples: 10, MeanRTT: 100, Clients: 3}
	o2 := o1
	o2.Samples, o2.MeanRTT, o2.Clients = 30, 60, 5
	p1 := NewPartial(PartialID{Agent: 0, Seq: 5}, 5)
	p1.Observe(o1)
	p2 := NewPartial(PartialID{Agent: 1, Seq: 5}, 5)
	p2.Observe(o2)
	a := NewAggregate(5)
	a.Add(p1)
	a.Add(p2)
	cells := a.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1 combined", len(cells))
	}
	c := cells[0]
	if c.Samples != 40 || c.Clients != 8 {
		t.Fatalf("combined counts = %+v", c)
	}
	want := (100.0*10 + 60.0*30) / 40
	if math.Abs(c.MeanRTT-want) > 1e-12 {
		t.Fatalf("combined mean = %v, want %v", c.MeanRTT, want)
	}
}

// TestLatencySketch checks the wire sketch's exact tallies and its
// quantile envelope.
func TestLatencySketch(t *testing.T) {
	var s LatencySketch
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	vals := []float64{12, 30, 55, 80, 120, 300, 45, 60}
	for _, v := range vals {
		s.Add(v)
	}
	if s.N != int64(len(vals)) {
		t.Fatalf("N = %d, want %d (non-finite must be ignored)", s.N, len(vals))
	}
	if s.Min != 12 || s.Max != 300 {
		t.Fatalf("envelope = [%v, %v]", s.Min, s.Max)
	}
	for _, q := range []float64{0, 0.5, 0.9, 1} {
		v := s.Quantile(q)
		if v < s.Min || v > s.Max {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, s.Min, s.Max)
		}
	}
	if s.Quantile(0.5) > s.Quantile(0.99)+1e-9 {
		t.Fatal("quantiles not monotone")
	}
	// Merge order cannot change the histogram, and the canonical-order sum
	// is exact.
	var a, b LatencySketch
	for i, v := range vals {
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	var m1, m2 LatencySketch
	m1.Merge(&a)
	m1.Merge(&b)
	m2.Merge(&b)
	m2.Merge(&a)
	if m1.Counts != m2.Counts || m1.N != m2.N || m1.Min != m2.Min || m1.Max != m2.Max {
		t.Fatal("sketch merge not order-independent on exact fields")
	}
}

// TestAggregateReset checks the reuse path keeps no stale state.
func TestAggregateReset(t *testing.T) {
	parts := mkPartials(t, 3, 30, 2, 8)
	a := NewAggregate(2)
	for _, p := range parts {
		a.Add(p)
	}
	a.Cells() // force a fold
	a.Reset(3)
	if a.Partials() != 0 || len(a.Cells()) != 0 || a.Samples() != 0 || a.Deduped != 0 {
		t.Fatal("Reset left stale state")
	}
	p := NewPartial(PartialID{Agent: 9, Seq: 3}, 3)
	p.Observe(mkObs(1, 0, 3, rand.New(rand.NewSource(1))))
	if !a.Add(p) {
		t.Fatal("post-Reset Add rejected")
	}
	if len(a.Cells()) != 1 {
		t.Fatalf("cells after reset = %d", len(a.Cells()))
	}
}

// TestPartialReset checks partial reuse: a recycled partial forgets its
// previous bucket.
func TestPartialReset(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := NewPartial(PartialID{}, 1)
	p.ObserveClassified(mkObs(1, 0, 1, r), 0) // target 0 => bad when enough
	p.Reset(PartialID{Seq: 2}, 2)
	if len(p.Cells) != 0 || p.BadCells != 0 || p.Sketch.N != 0 {
		t.Fatal("Reset left stale state")
	}
	o := mkObs(2, 1, 2, r)
	p.Observe(o)
	p.Observe(o) // same key combines, never duplicates
	if len(p.Cells) != 1 || p.Cells[0].Samples != 2*o.Samples {
		t.Fatalf("combine after reset: %+v", p.Cells)
	}
}
