package ingest

import (
	"context"
	"os/exec"
	"strings"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// TestScanCostSeed42Drain pins §6.1's accounting to the figures the
// ingestion store it replaced produced: BENCH_2026-09-29.json records 1152
// scanned storage buckets and 1 531 265 scanned records for the half-day
// drain of the fault-free seed-42 small world through an 8-bucket hourly
// store, and the decorator was held to that store read for read (these
// four patterns) on the commit before it went. Only requested buckets are
// charged: the warm-up stride reads every 4th.
func TestScanCostSeed42Drain(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), netmodel.BucketsPerDay, 44)
	s := sim.New(w, tbl, faults.NewSchedule(nil), sim.DefaultConfig(45))
	ctx := context.Background()
	for _, tc := range []struct {
		name             string
		windowLen        netmodel.Bucket
		stride           netmodel.Bucket
		buckets, records int
	}{
		{"hourly windows", netmodel.BucketsPerHour, 1, 1152, 1531265},
		{"hourly windows, warm-up stride", netmodel.BucketsPerHour, 4, 288, 117749},
		{"15-minute windows", 3, 1, 1152, 471035},
		{"15-minute windows, warm-up stride", 3, 4, 288, 58850},
	} {
		cost := NewScanCost(SourceFunc(s.ObservationsAt), 8, tc.windowLen)
		var buf []trace.Observation
		for b := netmodel.Bucket(0); b < netmodel.BucketsPerDay/2; b += tc.stride {
			var err error
			if buf, err = cost.ObservationsAt(ctx, b, buf[:0]); err != nil {
				t.Fatal(err)
			}
		}
		if cost.ScannedBuckets() != tc.buckets || cost.ScannedRecords() != tc.records {
			t.Errorf("%s: scanned %d storage buckets / %d records, want %d / %d", tc.name,
				cost.ScannedBuckets(), cost.ScannedRecords(), tc.buckets, tc.records)
		}
	}
}

// TestScanCostFinerWindows is the §6.1 follow-up ("creating finer buckets"):
// on a steady feed of 10 records per bucket, the read that closes an hour
// filters through the whole hour's 120 records under the hourly layout and
// through one 15-minute window's 30 under the fine one — 4× fewer for the
// same answer. A read that fails is charged nothing.
func TestScanCostFinerWindows(t *testing.T) {
	steady := SourceFunc(func(b netmodel.Bucket, buf []trace.Observation) []trace.Observation {
		for p := 0; p < 10; p++ {
			buf = append(buf, trace.Observation{Prefix: netmodel.PrefixID(p), Bucket: b, Samples: 10, MeanRTT: 1})
		}
		return buf
	})
	ctx := context.Background()
	hourly := NewScanCost(steady, 8, netmodel.BucketsPerHour)
	fine := NewScanCost(steady, 8, 3)
	var lastHourly, lastFine int
	for b := netmodel.Bucket(0); b < netmodel.BucketsPerHour; b++ {
		h0, f0 := hourly.ScannedRecords(), fine.ScannedRecords()
		a, _ := hourly.ObservationsAt(ctx, b, nil)
		c, _ := fine.ObservationsAt(ctx, b, nil)
		if !equalObs(a, c) || len(a) != 10 {
			t.Fatalf("bucket %d: layouts disagree on results: %d vs %d records", b, len(a), len(c))
		}
		lastHourly, lastFine = hourly.ScannedRecords()-h0, fine.ScannedRecords()-f0
	}
	if lastHourly != 120 {
		t.Errorf("hourly layout scanned %d records to close the hour, want the whole hour (120)", lastHourly)
	}
	if lastFine != 30 {
		t.Errorf("fine layout scanned %d records to close the hour, want one window (30)", lastFine)
	}
	if hourly.ScannedBuckets() != fine.ScannedBuckets() {
		t.Errorf("layouts with equal storage buckets per window scanned %d vs %d of them",
			hourly.ScannedBuckets(), fine.ScannedBuckets())
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	before := hourly.ScannedBuckets()
	if _, err := hourly.ObservationsAt(cancelled, netmodel.BucketsPerHour, nil); err == nil {
		t.Fatal("cancelled read succeeded")
	}
	if hourly.ScannedBuckets() != before {
		t.Error("a failed read was charged a scan")
	}
}

// TestIngestDoesNotImportSimulator: the data plane defines its interface
// without linking the simulator or anything only the simulator needs.
func TestIngestDoesNotImportSimulator(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Skipf("go list unavailable: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		for _, banned := range []string{"sim", "topology", "bgp", "faults", "parallel"} {
			if dep == "blameit/internal/"+banned {
				t.Errorf("internal/ingest depends on %s", dep)
			}
		}
	}
}
