package ingest

import (
	"bytes"
	"context"
	"strings"
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
// a streaming trace reader fed from the same telemetry, and the ScanCost
// decorator over either must yield identical observation slices for every
// bucket — the property replay determinism is built on.
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

	stream := NewStreamSource(bytes.NewReader(file.Bytes()))
	counted := NewScanCost(NewStreamSource(bytes.NewReader(file.Bytes())), 8, netmodel.BucketsPerHour)
	sources := map[string]ObservationSource{
		"live": SourceFunc(s.ObservationsAt), "stream": stream, "scan-cost": counted,
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
	if stream.Records() != int64(len(all)) {
		t.Errorf("stream consumed %d records, trace holds %d", stream.Records(), len(all))
	}
	if counted.ScannedBuckets() != 8*int(horizon) {
		t.Errorf("decorator charged %d storage buckets for %d reads, want 8 each", counted.ScannedBuckets(), horizon)
	}
}

// TestStreamSourceSkipsBuckets mirrors the pipeline's warmup subsampling:
// requesting every 4th bucket must discard the intervening records and
// still return the right ones.
func TestStreamSourceSkipsBuckets(t *testing.T) {
	s := testSim(t)
	ctx := context.Background()
	const horizon = netmodel.BucketsPerHour

	var file bytes.Buffer
	var buf []trace.Observation
	for b := netmodel.Bucket(0); b < horizon; b++ {
		buf = s.ObservationsAt(b, buf[:0])
		if err := trace.WriteJSONL(&file, buf); err != nil {
			t.Fatal(err)
		}
	}
	stream := NewStreamSource(bytes.NewReader(file.Bytes()))
	var want, got []trace.Observation
	for b := netmodel.Bucket(0); b < horizon; b += 4 {
		want = s.ObservationsAt(b, want[:0])
		var err error
		got, err = stream.ObservationsAt(ctx, b, got[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !equalObs(got, want) {
			t.Fatalf("subsampled read diverges at bucket %d", b)
		}
	}
}

// TestStreamSourceExhaustion: reads past the end of the trace return empty
// results without error, and Exhausted reports it.
func TestStreamSourceExhaustion(t *testing.T) {
	obs := []trace.Observation{{Prefix: 1, Bucket: 0, Samples: 10, MeanRTT: 5}}
	var file bytes.Buffer
	if err := trace.WriteJSONL(&file, obs); err != nil {
		t.Fatal(err)
	}
	stream := NewStreamSource(bytes.NewReader(file.Bytes()))
	ctx := context.Background()
	got, err := stream.ObservationsAt(ctx, 0, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("first bucket: %d records, err %v", len(got), err)
	}
	got, err = stream.ObservationsAt(ctx, 1, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("past-the-end read: %d records, err %v", len(got), err)
	}
	if !stream.Exhausted() {
		t.Error("stream not marked exhausted")
	}
}

// TestStreamSourceHoldsBackFutureBucket: a record for a later bucket must
// not be consumed early or lost.
func TestStreamSourceHoldsBackFutureBucket(t *testing.T) {
	obs := []trace.Observation{
		{Prefix: 1, Bucket: 0, Samples: 10, MeanRTT: 5},
		{Prefix: 2, Bucket: 3, Samples: 10, MeanRTT: 6},
	}
	var file bytes.Buffer
	if err := trace.WriteJSONL(&file, obs); err != nil {
		t.Fatal(err)
	}
	stream := NewStreamSource(bytes.NewReader(file.Bytes()))
	ctx := context.Background()
	// Sequential requests, including empty intermediate buckets.
	wantCounts := []int{1, 0, 0, 1}
	for b := netmodel.Bucket(0); b < 4; b++ {
		got, err := stream.ObservationsAt(ctx, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != wantCounts[b] {
			t.Fatalf("bucket %d: %d records, want %d", b, len(got), wantCounts[b])
		}
		if len(got) == 1 && got[0].Bucket != b {
			t.Fatalf("bucket %d served record of bucket %d", b, got[0].Bucket)
		}
	}
}

// TestStreamSourceRejectsUnsortedTrace: records regressing in bucket order
// would silently mis-assign observations; the source must error instead.
func TestStreamSourceRejectsUnsortedTrace(t *testing.T) {
	obs := []trace.Observation{
		{Prefix: 1, Bucket: 5, Samples: 10, MeanRTT: 5},
		{Prefix: 2, Bucket: 3, Samples: 10, MeanRTT: 6},
	}
	var file bytes.Buffer
	if err := trace.WriteJSONL(&file, obs); err != nil {
		t.Fatal(err)
	}
	stream := NewStreamSource(bytes.NewReader(file.Bytes()))
	_, err := stream.ObservationsAt(context.Background(), 5, nil)
	if err == nil || !strings.Contains(err.Error(), "regresses") {
		t.Fatalf("unsorted trace accepted: %v", err)
	}
}

// TestStreamSourceDecodeErrorContext: a corrupt record is reported with its
// index and byte offset.
func TestStreamSourceDecodeErrorContext(t *testing.T) {
	in := "{\"prefix\":1,\"cloud\":0,\"device\":0,\"bucket\":0,\"samples\":10,\"mean_rtt_ms\":5,\"clients\":1}\n{\"prefix\": }\n"
	stream := NewStreamSource(strings.NewReader(in))
	_, err := stream.ObservationsAt(context.Background(), 0, nil)
	if err == nil {
		t.Fatal("corrupt trace accepted")
	}
	if !strings.Contains(err.Error(), "record 1") || !strings.Contains(err.Error(), "byte offset") {
		t.Errorf("decode error lacks position context: %v", err)
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
		"stream":    NewStreamSource(strings.NewReader("")),
		"scan-cost": NewScanCost(SourceFunc(s.ObservationsAt), 8, netmodel.BucketsPerHour),
	}
	for name, src := range sources {
		if _, err := src.ObservationsAt(ctx, 0, nil); err != context.Canceled {
			t.Errorf("%s: cancelled read returned %v, want context.Canceled", name, err)
		}
	}
}
