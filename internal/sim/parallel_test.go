package sim

import (
	"runtime"
	"sync"
	"testing"

	"blameit/internal/faults"
	"blameit/internal/netmodel"
)

// workerSweep is the set of fan-out widths every determinism test checks:
// the sequential reference, a fixed mid-size pool, and the full machine.
func workerSweep() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// sweepFaults injects one fault per segment kind so the sharded paths
// cover the fault-overlay branches, not just the quiet case.
func sweepFaults(r *rig) []faults.Fault {
	return []faults.Fault{
		{Kind: faults.CloudFault, Cloud: r.w.Clouds[0].ID, ScopeCloud: faults.NoCloud, Start: 5, Duration: 50, ExtraMS: 40},
		{Kind: faults.MiddleASFault, AS: r.w.Transits[netmodel.RegionEurope][0], ScopeCloud: faults.NoCloud, Start: 10, Duration: 40, ExtraMS: 60},
		{Kind: faults.ClientASFault, AS: r.w.Eyeballs[netmodel.RegionUSA][0], ScopeCloud: faults.NoCloud, Start: 0, Duration: 60, ExtraMS: 80},
	}
}

// TestObservationsIdenticalAcrossWorkerCounts is the tentpole determinism
// guarantee: the same seed yields a byte-identical observation stream for
// Workers in {1, 4, GOMAXPROCS}.
func TestObservationsIdenticalAcrossWorkerCounts(t *testing.T) {
	base := newRig(t, nil, 1)
	fs := sweepFaults(base)
	buckets := []netmodel.Bucket{0, 10, netmodel.Bucket(20 * netmodel.BucketsPerHour)}

	var want []Observation
	for si, workers := range workerSweep() {
		r := newRig(t, fs, 1)
		r.sim.SetWorkers(workers)
		var got []Observation
		for _, b := range buckets {
			got = r.sim.ObservationsAt(b, got)
		}
		if si == 0 {
			want = got
			if len(want) == 0 {
				t.Fatal("no observations generated")
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d observations, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: observation %d differs:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestObservationsAtReusableBuffersAreCallerSafe checks that the reusable
// per-shard scratch never leaks between calls: back-to-back generations at
// different buckets must match independent fresh generations.
func TestObservationsAtReusableBuffersAreCallerSafe(t *testing.T) {
	r := newRig(t, nil, 1)
	r.sim.SetWorkers(4)
	first := r.sim.ObservationsAt(3, nil)
	second := r.sim.ObservationsAt(4, nil)

	fresh := newRig(t, nil, 1)
	fresh.sim.SetWorkers(4)
	wantSecond := fresh.sim.ObservationsAt(4, nil)
	if len(second) != len(wantSecond) {
		t.Fatalf("reused-buffer run: %d observations, want %d", len(second), len(wantSecond))
	}
	for i := range second {
		if second[i] != wantSecond[i] {
			t.Fatalf("reused-buffer observation %d differs", i)
		}
	}
	if len(first) == 0 {
		t.Fatal("no observations in first bucket")
	}
}

// TestConcurrentObservationsAtCallers exercises the scratch checkout path
// under concurrent callers (run with -race): two goroutines generating
// different buckets from the same Simulator must not interfere.
func TestConcurrentObservationsAtCallers(t *testing.T) {
	r := newRig(t, nil, 1)
	r.sim.SetWorkers(4)
	want0 := r.sim.ObservationsAt(0, nil)
	want7 := r.sim.ObservationsAt(7, nil)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for it := 0; it < 8; it++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got := r.sim.ObservationsAt(0, nil)
			if len(got) != len(want0) {
				errs <- "bucket 0 length mismatch"
				return
			}
			for i := range got {
				if got[i] != want0[i] {
					errs <- "bucket 0 content mismatch"
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			got := r.sim.ObservationsAt(7, nil)
			if len(got) != len(want7) {
				errs <- "bucket 7 length mismatch"
				return
			}
			for i := range got {
				if got[i] != want7[i] {
					errs <- "bucket 7 content mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
