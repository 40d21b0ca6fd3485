package quartet

import (
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
				out[i].Observe(mkObs(p, c, bucket, r))
			}
		}
	}
	return out
}

// aggSnapshot captures both views of an aggregate.
type aggSnapshot struct {
	cells []Cell
	obs   []trace.Observation
}

func snap(a *Aggregate) aggSnapshot {
	return aggSnapshot{cells: a.Cells(), obs: a.Observations(nil)}
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
	if len(want.cells) != 200 || len(want.obs) != 200 {
		t.Fatalf("base aggregate cells=%d observations=%d, want the 200 observed", len(want.cells), len(want.obs))
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
			t.Fatalf("trial %d: shuffled delivery changed the views", trial)
		}
	}
}

// TestMergeIdempotentUnderDedup redelivers every partial and demands the
// views are unchanged and every extra copy is refused.
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
	if got := snap(a); !reflect.DeepEqual(got, want) {
		t.Fatal("redelivery changed the views")
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

// TestCollidingCellsBothServed pins the layer's one rule for hostile
// input: it has none. Two partials claiming one quartet — or one partial
// observing it twice — keep every cell, in PartialID then insertion
// order, for the pipeline's quarantine to settle (first wins).
func TestCollidingCellsBothServed(t *testing.T) {
	o1 := trace.Observation{Prefix: 1, Cloud: 0, Device: 1, Bucket: 5, Samples: 10, MeanRTT: 100, Clients: 3}
	o2 := o1
	o2.Samples, o2.MeanRTT, o2.Clients = 30, 60, 5
	p1 := NewPartial(PartialID{Agent: 0, Seq: 5}, 5)
	p1.Observe(o1)
	p1.Observe(o2)
	p2 := NewPartial(PartialID{Agent: 1, Seq: 5}, 5)
	p2.Observe(o2)
	a := NewAggregate(5)
	a.Add(p2)
	a.Add(p1)
	if got, want := a.Observations(nil), []trace.Observation{o1, o2, o2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("observations = %+v, want every claimed cell in PartialID order %+v", got, want)
	}
	if n := len(a.Cells()); n != 3 {
		t.Fatalf("cells = %d, want 3 uncombined", n)
	}
}
