package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/sim"
	"blameit/internal/topology"
)

// reportFingerprint flattens every field of a run's reports that an
// operator could observe, so two runs can be compared exactly.
func reportFingerprint(reps []*Report) []string {
	var out []string
	for _, rep := range reps {
		out = append(out, fmt.Sprintf("window %d..%d", rep.From, rep.To))
		for _, r := range rep.Results {
			out = append(out, fmt.Sprintf("res p%d c%d b%d %s as%d",
				r.Q.Obs.Prefix, r.Q.Obs.Cloud, r.Q.Obs.Bucket, r.Blame, r.BlamedAS))
		}
		for _, v := range rep.Verdicts {
			out = append(out, fmt.Sprintf("verdict %s probed=%v ok=%v as%d", v.Issue.Key, v.Probed, v.OK, v.AS))
		}
		for _, tk := range rep.Tickets {
			out = append(out, fmt.Sprintf("ticket %s %s", tk.Team, tk.Summary))
		}
	}
	return out
}

// runWithWorkers drives a faulty two-day pipeline with the given fan-out
// in both the simulator and the job, returning the full report stream.
func runWithWorkers(workers int) []*Report {
	w := topology.Generate(topology.SmallScale(), 42)
	fs := []faults.Fault{
		{Kind: faults.CloudFault, Cloud: w.Clouds[0].ID, ScopeCloud: faults.NoCloud,
			Start: dayStart + 2*netmodel.BucketsPerHour, Duration: 12, ExtraMS: 70},
		{Kind: faults.MiddleASFault, AS: w.Transits[netmodel.RegionEurope][0], ScopeCloud: faults.NoCloud,
			Start: dayStart + 5*netmodel.BucketsPerHour, Duration: 12, ExtraMS: 90},
	}
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), 2*netmodel.BucketsPerDay, 7)
	scfg := sim.DefaultConfig(99)
	scfg.Workers = workers
	s := sim.New(w, tbl, faults.NewSchedule(fs), scfg)
	cfg := DefaultConfig()
	cfg.Workers = workers
	p := NewSim(s, cfg)
	p.Warmup(0, dayStart)
	var reps []*Report
	p.Run(dayStart, dayStart+8*netmodel.BucketsPerHour, func(rep *Report) { reps = append(reps, rep) })
	return reps
}

// TestReportsIdenticalAcrossWorkerCounts pins the tentpole guarantee end
// to end: the same seed produces identical Reports (verdicts, active-phase
// localizations and tickets) for Workers in {1, 4, GOMAXPROCS}.
func TestReportsIdenticalAcrossWorkerCounts(t *testing.T) {
	want := reportFingerprint(runWithWorkers(1))
	if len(want) == 0 {
		t.Fatal("sequential reference produced no report lines")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := reportFingerprint(runWithWorkers(workers))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d report lines, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: line %d differs:\n got %s\nwant %s", workers, i, got[i], want[i])
			}
		}
	}
}

// TestUnalignedRunStartClampsWindow is the regression test for the
// Report.From underflow: a run starting on a bucket that is not a multiple
// of RunEvery must not report buckets it never stepped.
func TestUnalignedRunStartClampsWindow(t *testing.T) {
	cfg := DefaultConfig() // RunEvery = 3
	p := buildPipeline(t, nil, 1, cfg)

	// dayStart is a multiple of 3, so the first job boundary after an
	// unaligned start at dayStart+1 is dayStart+2: only two buckets were
	// stepped, and the old From computation (b - RunEvery + 1) would have
	// claimed dayStart as well.
	start := dayStart + 1
	var reps []*Report
	p.Run(start, start+4, func(rep *Report) { reps = append(reps, rep) })
	if len(reps) != 1 {
		t.Fatalf("reports = %d, want 1", len(reps))
	}
	if reps[0].From != start {
		t.Errorf("first report From = %d, want the run start %d", reps[0].From, start)
	}
	if reps[0].To != dayStart+2 {
		t.Errorf("first report To = %d, want %d", reps[0].To, dayStart+2)
	}
	for _, r := range reps[0].Results {
		if r.Q.Obs.Bucket < start {
			t.Fatalf("report contains bucket %d before the run start %d", r.Q.Obs.Bucket, start)
		}
	}
}

// TestSingleBucketWindowOnJobBoundary starts exactly on a job boundary:
// the window holds one bucket and the report must say so.
func TestSingleBucketWindowOnJobBoundary(t *testing.T) {
	p := buildPipeline(t, nil, 1, DefaultConfig())
	start := dayStart + 2 // (dayStart+2+1) % 3 == 0: job fires immediately
	rep, _ := p.Step(start)
	if rep == nil {
		t.Fatal("no report on the job boundary")
	}
	if rep.From != start || rep.To != start {
		t.Errorf("window = [%d, %d], want [%d, %d]", rep.From, rep.To, start, start)
	}
}

// TestAlignedWindowsUnchanged confirms the clamp leaves the steady-state
// cadence untouched: after the first job, every window spans RunEvery
// buckets.
func TestAlignedWindowsUnchanged(t *testing.T) {
	p := buildPipeline(t, nil, 1, DefaultConfig())
	var reps []*Report
	p.Run(dayStart, dayStart+12, func(rep *Report) { reps = append(reps, rep) })
	if len(reps) != 4 {
		t.Fatalf("reports = %d, want 4", len(reps))
	}
	for _, rep := range reps {
		if rep.To-rep.From+1 != netmodel.Bucket(p.Cfg.RunEvery) {
			t.Errorf("window [%d, %d] spans %d buckets, want %d", rep.From, rep.To, rep.To-rep.From+1, p.Cfg.RunEvery)
		}
	}
}

// TestRelearnOncePerDay covers Step's day-boundary relearn path: the
// thresholds snapshot must refresh exactly once per simulated day.
func TestRelearnOncePerDay(t *testing.T) {
	p := buildPipeline(t, nil, 2, DefaultConfig())
	last := p.Thresholds
	refreshes := 0
	var refreshedAt []netmodel.Bucket
	for b := dayStart; b < dayStart+2*netmodel.BucketsPerDay; b++ {
		p.Step(b)
		if p.Thresholds != last {
			refreshes++
			refreshedAt = append(refreshedAt, b)
			last = p.Thresholds
		}
	}
	if refreshes != 2 {
		t.Fatalf("thresholds refreshed %d times over two days, want 2 (at %v)", refreshes, refreshedAt)
	}
	for i, b := range refreshedAt {
		if b.OfDay() != 0 {
			t.Errorf("refresh %d happened mid-day at bucket %d", i, b)
		}
	}
}

// TestRelearnChangesVerdictsAfterDrift asserts the relearn path has teeth:
// with a stale (absurdly high) threshold snapshot installed, a cloud fault
// escapes blame; the day-boundary refresh restores the learner's medians
// and the same fault is blamed on the cloud.
func TestRelearnChangesVerdictsAfterDrift(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	c := w.CloudsInRegion(netmodel.RegionEurope)[0]
	// A fault spanning the day-1 → day-2 boundary.
	f := faults.Fault{
		Kind: faults.CloudFault, Cloud: c, ScopeCloud: faults.NoCloud,
		Start: dayStart + netmodel.BucketsPerDay - 12, Duration: 24, ExtraMS: 70,
	}
	p := buildPipeline(t, []faults.Fault{f}, 2, DefaultConfig())

	// Simulate a badly drifted learner snapshot: expected RTTs far above
	// anything observable, so nothing ever looks bad against them.
	stale := make(map[netmodel.CloudID]float64)
	for _, cl := range p.World.Clouds {
		stale[cl.ID] = 10000
	}
	p.SetThresholds(core.StaticThresholds(p.Table.Keys(), stale, nil))
	p.lastRelearnDay = 1 // day 1's organic refresh already happened

	countCloud := func(from, to netmodel.Bucket) (cloud, total int) {
		p.Run(from, to, func(rep *Report) {
			for _, r := range rep.Results {
				if r.Q.Obs.Cloud != c {
					continue
				}
				total++
				if r.Blame == core.BlameCloud {
					cloud++
				}
			}
		})
		return
	}

	staleCloud, staleTotal := countCloud(f.Start, dayStart+netmodel.BucketsPerDay)
	if staleTotal == 0 {
		t.Fatal("no verdicts under the stale thresholds")
	}
	if staleCloud != 0 {
		t.Fatalf("stale thresholds still blamed the cloud %d/%d times", staleCloud, staleTotal)
	}
	before := p.Thresholds

	// Crossing into day 2 must refresh the snapshot from the learner and
	// flip the verdicts to cloud.
	freshCloud, freshTotal := countCloud(dayStart+netmodel.BucketsPerDay, f.End())
	if p.Thresholds == before {
		t.Fatal("day boundary did not refresh thresholds")
	}
	if freshTotal == 0 {
		t.Fatal("no verdicts after the refresh")
	}
	if freshCloud*10 < freshTotal*8 {
		t.Errorf("after relearn only %d/%d verdicts blamed the cloud", freshCloud, freshTotal)
	}
}
