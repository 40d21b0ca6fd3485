package probe

import (
	"math"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/sim"
	"blameit/internal/topology"
)

func newSim(t testing.TB, fs []faults.Fault, churn bgp.ChurnConfig, days int) *sim.Simulator {
	t.Helper()
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, churn, netmodel.Bucket(days*netmodel.BucketsPerDay), 7)
	return sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(99))
}

func TestTracerouteShape(t *testing.T) {
	s := newSim(t, nil, bgp.ChurnConfig{}, 1)
	w := s.World
	e := NewEngine(s, 0)
	p := w.Prefixes[0]
	c := w.Attachments(p.ID)[0].Cloud
	tr := e.Traceroute(c, p.ID, 5, Background)
	path := s.Routes.PathAtForPrefix(c, p.ID, 5)
	if len(tr.Hops) != len(path.Middle)+2 {
		t.Fatalf("hops = %d", len(tr.Hops))
	}
	if tr.Hops[0].Segment != netmodel.SegCloud {
		t.Error("first hop must be the cloud segment")
	}
	if tr.Hops[len(tr.Hops)-1].AS != p.AS {
		t.Error("last hop must be the client AS")
	}
	// Cumulative RTTs must be nondecreasing without noise.
	for i := 1; i < len(tr.Hops); i++ {
		if tr.Hops[i].CumulativeMS < tr.Hops[i-1].CumulativeMS {
			t.Error("cumulative RTT decreased")
		}
	}
	// Final cumulative RTT equals the simulator's mean RTT.
	if math.Abs(tr.Hops[len(tr.Hops)-1].CumulativeMS-s.MeanRTT(p.ID, c, 5)) > 1e-9 {
		t.Error("end-to-end traceroute RTT differs from simulator RTT")
	}
}

func TestTracerouteCounters(t *testing.T) {
	s := newSim(t, nil, bgp.ChurnConfig{}, 1)
	e := NewEngine(s, 0)
	p := s.World.Prefixes[0].ID
	c := s.World.Attachments(p)[0].Cloud
	e.Traceroute(c, p, 1, Background)
	e.Traceroute(c, p, 2, ChurnTriggered)
	e.Traceroute(c, p, 3, OnDemand)
	e.Traceroute(c, p, 4, OnDemand)
	cnt := e.Counters()
	if cnt.Count(Background) != 1 || cnt.Count(ChurnTriggered) != 1 || cnt.Count(OnDemand) != 2 {
		t.Errorf("counters = %d/%d/%d", cnt.Count(Background), cnt.Count(ChurnTriggered), cnt.Count(OnDemand))
	}
	if cnt.Total() != 4 {
		t.Errorf("total = %d", cnt.Total())
	}
}

func TestCompareLocalizesMiddleFault(t *testing.T) {
	// Reproduces the §5.2 illustrative example: background 4/6/8/9ms vs
	// on-demand 4/60/62/64ms must blame m1.
	base := Traceroute{Hops: []Hop{
		{AS: 1, Segment: netmodel.SegCloud, CumulativeMS: 4},
		{AS: 2, Segment: netmodel.SegMiddle, CumulativeMS: 6},
		{AS: 3, Segment: netmodel.SegMiddle, CumulativeMS: 8},
		{AS: 4, Segment: netmodel.SegClient, CumulativeMS: 9},
	}}
	now := Traceroute{Hops: []Hop{
		{AS: 1, Segment: netmodel.SegCloud, CumulativeMS: 4},
		{AS: 2, Segment: netmodel.SegMiddle, CumulativeMS: 60},
		{AS: 3, Segment: netmodel.SegMiddle, CumulativeMS: 62},
		{AS: 4, Segment: netmodel.SegClient, CumulativeMS: 64},
	}}
	res := Compare(now, base)
	if !res.OK {
		t.Fatal("comparison failed")
	}
	if res.AS != 2 || res.Segment != netmodel.SegMiddle {
		t.Errorf("culprit = AS%d (%v), want AS2 (middle)", res.AS, res.Segment)
	}
	if math.Abs(res.IncreaseMS-54) > 1e-9 {
		t.Errorf("increase = %v, want 54", res.IncreaseMS)
	}
}

func TestCompareFailsOnPathChange(t *testing.T) {
	base := Traceroute{Hops: []Hop{{AS: 1, CumulativeMS: 4}, {AS: 2, CumulativeMS: 6}}}
	nowDifferentAS := Traceroute{Hops: []Hop{{AS: 1, CumulativeMS: 4}, {AS: 9, CumulativeMS: 6}}}
	if Compare(nowDifferentAS, base).OK {
		t.Error("comparison across different AS sequences must fail")
	}
	nowLonger := Traceroute{Hops: []Hop{{AS: 1, CumulativeMS: 4}, {AS: 2, CumulativeMS: 6}, {AS: 3, CumulativeMS: 7}}}
	if Compare(nowLonger, base).OK {
		t.Error("comparison across different hop counts must fail")
	}
}

func TestEndToEndFaultLocalization(t *testing.T) {
	// Inject a middle fault and verify traceroute comparison names the AS.
	w := topology.Generate(topology.SmallScale(), 42)
	as := w.Tier1s[1]
	f := faults.Fault{Kind: faults.MiddleASFault, AS: as, ScopeCloud: faults.NoCloud, Start: 100, Duration: 20, ExtraMS: 70}
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	s := sim.New(w, tbl, faults.NewSchedule([]faults.Fault{f}), sim.DefaultConfig(99))
	e := NewEngine(s, 0.5)
	// Find a (cloud, prefix) pair routed through the AS.
	for _, p := range w.Prefixes {
		for _, c := range w.Clouds {
			path := tbl.PathAtForPrefix(c.ID, p.ID, 100)
			for _, m := range path.Middle {
				if m != as {
					continue
				}
				base := e.Traceroute(c.ID, p.ID, 90, Background)
				now := e.Traceroute(c.ID, p.ID, 105, OnDemand)
				res := Compare(now, base)
				if !res.OK {
					t.Fatal("comparison failed on stable path")
				}
				if res.AS != as {
					t.Fatalf("culprit = AS%d, want AS%d", res.AS, as)
				}
				return
			}
		}
	}
	t.Fatal("no path traverses the faulty AS")
}

func TestBudget(t *testing.T) {
	b := NewBudget(2)
	if !b.TryTake(1, 0) || !b.TryTake(1, 5) {
		t.Fatal("budget refused within limit")
	}
	if b.TryTake(1, 10) {
		t.Fatal("budget exceeded")
	}
	// Another cloud and another day have their own budgets.
	if !b.TryTake(2, 10) {
		t.Fatal("per-cloud isolation broken")
	}
	if !b.TryTake(1, netmodel.BucketsPerDay+1) {
		t.Fatal("per-day reset broken")
	}
	if b.Used(1, 0) != 2 {
		t.Errorf("used = %d", b.Used(1, 0))
	}
	unlimited := NewBudget(0)
	for i := 0; i < 100; i++ {
		if !unlimited.TryTake(1, 0) {
			t.Fatal("unlimited budget refused")
		}
	}
}

func TestBaselinerEstablishesBaselines(t *testing.T) {
	s := newSim(t, nil, bgp.ChurnConfig{}, 2)
	e := NewEngine(s, 0)
	cfg := BackgroundConfig{PeriodBuckets: 12 * netmodel.BucketsPerHour, OnChurn: false}
	bg := NewBaseliner(cfg, e, s.Routes)
	if bg.NumPaths() == 0 {
		t.Fatal("no paths registered")
	}
	// After one full period every path has a baseline.
	for b := netmodel.Bucket(0); b < cfg.PeriodBuckets; b++ {
		bg.Advance(b)
	}
	missing := 0
	for _, c := range s.World.Clouds {
		for _, bp := range s.World.BGPPrefixes {
			mk := s.Routes.PathAt(c.ID, bp.ID, 0).Key()
			if _, ok := bg.Baseline(mk); !ok {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d paths missing baselines after a full period", missing)
	}
	// Periodic probe volume is paths per period.
	wantPerPeriod := int64(bg.NumPaths())
	if got := e.Counters().Count(Background); got != wantPerPeriod {
		t.Errorf("periodic probes = %d, want %d", got, wantPerPeriod)
	}
}

func TestBaselinerChurnTrigger(t *testing.T) {
	s := newSim(t, nil, bgp.DefaultChurnConfig(), 2)
	e := NewEngine(s, 0)
	cfg := BackgroundConfig{PeriodBuckets: 0, OnChurn: true} // churn only
	bg := NewBaseliner(cfg, e, s.Routes)
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	for b := netmodel.Bucket(0); b < horizon; b++ {
		bg.Advance(b)
	}
	churnProbes := e.Counters().Count(ChurnTriggered)
	events := len(s.Routes.Events(0, horizon))
	if int64(events) != churnProbes {
		t.Errorf("churn probes = %d, events = %d", churnProbes, events)
	}
	if churnProbes == 0 {
		t.Skip("no churn with this seed")
	}
}

func TestBaselineAge(t *testing.T) {
	s := newSim(t, nil, bgp.ChurnConfig{}, 2)
	e := NewEngine(s, 0)
	cfg := BackgroundConfig{PeriodBuckets: 144, OnChurn: false}
	bg := NewBaseliner(cfg, e, s.Routes)
	for b := netmodel.Bucket(0); b < 144; b++ {
		bg.Advance(b)
	}
	p := s.World.Prefixes[0]
	c := s.World.Attachments(p.ID)[0].Cloud
	mk := s.Routes.PathAtForPrefix(c, p.ID, 0).Key()
	age, ok := bg.BaselineAge(mk, 200)
	if !ok {
		t.Fatal("no baseline")
	}
	if age < 56 || age > 200 {
		t.Errorf("age = %d out of expected range", age)
	}
	if _, ok := bg.BaselineAge(netmodel.MiddleKey("c999|1"), 200); ok {
		t.Error("nonexistent baseline reported an age")
	}
}

func TestPurposeString(t *testing.T) {
	if Background.String() != "background" || ChurnTriggered.String() != "churn-triggered" || OnDemand.String() != "on-demand" {
		t.Error("purpose names wrong")
	}
	if Purpose(9).String() != "Purpose(9)" {
		t.Error("unknown purpose formatting")
	}
}

func TestBudgetPerMiddleASMode(t *testing.T) {
	b := NewBudgetMode(1, PerMiddleAS)
	pathA := netmodel.Path{Cloud: 1, Middle: []netmodel.ASN{2001, 2002}, Client: 9}
	pathB := netmodel.Path{Cloud: 1, Middle: []netmodel.ASN{2003}, Client: 9}
	if !b.TryTakeForIssue(pathA, 0) {
		t.Fatal("first take refused")
	}
	// Same first middle AS exhausts its own budget even from another cloud.
	pathA2 := netmodel.Path{Cloud: 5, Middle: []netmodel.ASN{2001}, Client: 7}
	if b.TryTakeForIssue(pathA2, 1) {
		t.Fatal("per-AS budget not shared across clouds")
	}
	// A different first middle AS has its own budget.
	if !b.TryTakeForIssue(pathB, 1) {
		t.Fatal("other AS starved")
	}
	// PerCloud mode shares across ASes but splits across clouds.
	c := NewBudgetMode(1, PerCloud)
	if !c.TryTakeForIssue(pathA, 0) || c.TryTakeForIssue(pathB, 1) {
		t.Fatal("per-cloud accounting wrong")
	}
	if !c.TryTakeForIssue(pathA2, 1) {
		t.Fatal("other cloud starved in per-cloud mode")
	}
}

func TestComparePropertySelfDiff(t *testing.T) {
	// Property: comparing a traceroute against itself yields no increase.
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	s := sim.New(w, tbl, faults.NewSchedule(nil), sim.DefaultConfig(99))
	e := NewEngine(s, 0)
	for _, p := range w.Prefixes[:25] {
		c := w.Attachments(p.ID)[0].Cloud
		tr := e.Traceroute(c, p.ID, 5, Background)
		res := Compare(tr, tr)
		if !res.OK || res.IncreaseMS != 0 {
			t.Fatalf("self-diff = %+v", res)
		}
	}
}

// recordingProber notes every probe requested of the engine, in order.
type recordingProber struct {
	*Engine
	calls []probeCall
}

type probeCall struct {
	c       netmodel.CloudID
	p       netmodel.PrefixID
	b       netmodel.Bucket
	purpose Purpose
}

func (r *recordingProber) Traceroute(c netmodel.CloudID, p netmodel.PrefixID, b netmodel.Bucket, purpose Purpose) Traceroute {
	r.calls = append(r.calls, probeCall{c, p, b, purpose})
	return r.Engine.Traceroute(c, p, b, purpose)
}

// TestBaselinerPeriodicSchedule holds Advance's per-offset due lists to the
// schedule they replaced — every registered path scanned every bucket, due
// when b % period equals the hash offset of its key, skipped while
// suppressed: bucket by bucket the periodic probes must be the same set
// (so probe.traceroutes cannot move), and two runs must issue every probe,
// periodic and churn-triggered, in the same order.
func TestBaselinerPeriodicSchedule(t *testing.T) {
	s := newSim(t, nil, bgp.DefaultChurnConfig(), 2)
	cfg := DefaultBackgroundConfig()
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)

	// The scan's view: one representative per distinct key at bucket 0,
	// the first (cloud, BGP prefix) to show it.
	type rep struct {
		key netmodel.MiddleKey
		c   netmodel.CloudID
		p   netmodel.PrefixID
	}
	var reps []rep
	known := make(map[netmodel.MiddleKey]bool)
	for _, c := range s.World.Clouds {
		for _, bp := range s.World.BGPPrefixes {
			if mk := s.Routes.PathAt(c.ID, bp.ID, 0).Key(); !known[mk] {
				known[mk] = true
				reps = append(reps, rep{mk, c.ID, s.World.PrefixesOfBGP(bp.ID)[0]})
			}
		}
	}
	suppressed := []netmodel.MiddleKey{reps[0].key, reps[len(reps)/2].key, reps[len(reps)-1].key}
	const suppressUntil = 100

	run := func() []probeCall {
		rec := &recordingProber{Engine: NewEngine(s, 0)}
		bg := NewBaselinerWith(cfg, rec, s.World, s.Routes)
		if bg.NumPaths() != len(reps) {
			t.Fatalf("NumPaths = %d, the table shows %d distinct keys at bucket 0", bg.NumPaths(), len(reps))
		}
		bg.Suppress(suppressed, suppressUntil)
		for b := netmodel.Bucket(0); b < horizon; b++ {
			bg.Advance(b)
		}
		return rec.calls
	}
	calls := run()

	got := make(map[probeCall]int)
	for _, c := range calls {
		if c.purpose == Background {
			got[c]++
		}
	}
	want := make(map[probeCall]int)
	for b := netmodel.Bucket(0); b < horizon; b++ {
		for _, r := range reps {
			if b%cfg.PeriodBuckets != offset(r.key, cfg.PeriodBuckets) {
				continue
			}
			if b < suppressUntil && (r.key == suppressed[0] || r.key == suppressed[1] || r.key == suppressed[2]) {
				continue
			}
			want[probeCall{r.c, r.p, b, Background}]++
		}
	}
	if len(want) == 0 {
		t.Fatal("the scan schedules no periodic probe")
	}
	for c, n := range want {
		if got[c] != n {
			t.Fatalf("periodic probe %+v issued %d times, the scan issues it %d times", c, got[c], n)
		}
	}
	for c, n := range got {
		if want[c] != n {
			t.Fatalf("periodic probe %+v issued %d times, the scan issues it %d times", c, n, want[c])
		}
	}

	again := run()
	if len(again) != len(calls) {
		t.Fatalf("second run issued %d probes, first %d", len(again), len(calls))
	}
	for i := range calls {
		if calls[i] != again[i] {
			t.Fatalf("probe %d differs between two runs: %+v then %+v", i, calls[i], again[i])
		}
	}
}
