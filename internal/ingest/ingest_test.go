package ingest

import (
	"bytes"
	"context"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// testSim builds a small fault-free simulator for source-equivalence tests.
func testSim(t *testing.T) *sim.Simulator {
	t.Helper()
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), netmodel.BucketsPerDay, 7)
	return sim.New(w, tbl, faults.NewSchedule(nil), sim.DefaultConfig(99))
}

// equalObs compares two observation slices elementwise.
func equalObs(a, b []trace.Observation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSourcesAgreeBucketForBucket is the interface contract: the live sim,
// the same telemetry recorded as JSONL and decoded back by DecodeBatch,
// and the ScanCost decorator over the recording must yield identical
// observation slices for every bucket — the property replay determinism
// is built on.
func TestSourcesAgreeBucketForBucket(t *testing.T) {
	s := testSim(t)
	ctx := context.Background()
	const horizon = 2 * netmodel.BucketsPerHour

	// Reference stream straight from the simulator, also serialized to a
	// JSONL trace.
	var file bytes.Buffer
	var all []trace.Observation
	var buf []trace.Observation
	for b := netmodel.Bucket(0); b < horizon; b++ {
		buf = s.ObservationsAt(b, buf[:0])
		all = append(all, buf...)
		if err := trace.WriteJSONL(&file, buf); err != nil {
			t.Fatal(err)
		}
	}

	decoded, err := DecodeBatch(file.Bytes(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(all) {
		t.Fatalf("decoded %d records, trace holds %d", len(decoded), len(all))
	}
	byBucket := make(map[netmodel.Bucket][]trace.Observation)
	for _, o := range decoded {
		byBucket[o.Bucket] = append(byBucket[o.Bucket], o)
	}
	recorded := SourceFunc(func(b netmodel.Bucket, buf []trace.Observation) []trace.Observation {
		return append(buf, byBucket[b]...)
	})
	counted := NewScanCost(recorded, 8, netmodel.BucketsPerHour)
	sources := map[string]ObservationSource{
		"live": SourceFunc(s.ObservationsAt), "recorded": recorded, "scan-cost": counted,
	}

	var got []trace.Observation
	for b := netmodel.Bucket(0); b < horizon; b++ {
		want := s.ObservationsAt(b, nil)
		for name, src := range sources {
			var err error
			got, err = src.ObservationsAt(ctx, b, got[:0])
			if err != nil {
				t.Fatalf("%s at bucket %d: %v", name, b, err)
			}
			if !equalObs(got, want) {
				t.Fatalf("%s diverges from the simulator at bucket %d (%d vs %d records)", name, b, len(got), len(want))
			}
		}
	}
	if counted.ScannedBuckets() != 8*int(horizon) {
		t.Errorf("decorator charged %d storage buckets for %d reads, want 8 each", counted.ScannedBuckets(), horizon)
	}
}

// TestSourcesHonorCancellation: every source returns promptly with the
// context's error once it is cancelled.
func TestSourcesHonorCancellation(t *testing.T) {
	s := testSim(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sources := map[string]ObservationSource{
		"live":      SourceFunc(s.ObservationsAt),
		"scan-cost": NewScanCost(SourceFunc(s.ObservationsAt), 8, netmodel.BucketsPerHour),
	}
	for name, src := range sources {
		if _, err := src.ObservationsAt(ctx, 0, nil); err != context.Canceled {
			t.Errorf("%s: cancelled read returned %v, want context.Canceled", name, err)
		}
	}
}
