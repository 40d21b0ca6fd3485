package faults

import (
	"math/rand"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/topology"
)

func testWorld() *topology.World { return topology.Generate(topology.SmallScale(), 42) }

func TestFaultActiveAt(t *testing.T) {
	f := Fault{Start: 10, Duration: 5}
	if f.ActiveAt(9) || !f.ActiveAt(10) || !f.ActiveAt(14) || f.ActiveAt(15) {
		t.Error("ActiveAt boundaries wrong")
	}
	if f.End() != 15 {
		t.Errorf("End = %d", f.End())
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		CloudFault: "cloud-fault", MiddleASFault: "middle-as-fault",
		ClientASFault: "client-as-fault", ClientPrefixFault: "client-prefix-fault",
		TrafficShift: "traffic-shift",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}

func TestSampleDurationDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 50000
	var short, over2h int
	for i := 0; i < n; i++ {
		d := SampleDuration(r)
		if d < 1 {
			t.Fatal("duration below one bucket")
		}
		if d == 1 {
			short++
		}
		if d > 24 {
			over2h++
		}
	}
	shortFrac := float64(short) / float64(n)
	longFrac := float64(over2h) / float64(n)
	// §2.3: over 60% of issues last <= 5 minutes, ~8% exceed 2 hours.
	if shortFrac < 0.55 || shortFrac > 0.65 {
		t.Errorf("fraction of 1-bucket issues = %.3f, want ~0.60", shortFrac)
	}
	if longFrac < 0.05 || longFrac > 0.11 {
		t.Errorf("fraction of >2h issues = %.3f, want ~0.08", longFrac)
	}
}

func TestScheduleCloudExtra(t *testing.T) {
	s := NewSchedule([]Fault{
		{Kind: CloudFault, Cloud: 1, Start: 5, Duration: 10, ExtraMS: 30},
		{Kind: CloudFault, Cloud: 1, Start: 8, Duration: 2, ExtraMS: 20},
		{Kind: CloudFault, Cloud: 2, Start: 5, Duration: 10, ExtraMS: 99},
	})
	if got := s.CloudExtra(1, 4); got != 0 {
		t.Errorf("extra before fault = %v", got)
	}
	if got := s.CloudExtra(1, 6); got != 30 {
		t.Errorf("extra during one fault = %v", got)
	}
	if got := s.CloudExtra(1, 8); got != 50 {
		t.Errorf("extra during overlap = %v", got)
	}
	if got := s.CloudExtra(3, 6); got != 0 {
		t.Errorf("extra for unaffected cloud = %v", got)
	}
}

func TestScheduleMiddleExtraScoping(t *testing.T) {
	s := NewSchedule([]Fault{
		{Kind: MiddleASFault, AS: 2001, ScopeCloud: 3, Start: 0, Duration: 10, ExtraMS: 40},
		{Kind: MiddleASFault, AS: 2002, ScopeCloud: NoCloud, Start: 0, Duration: 10, ExtraMS: 25},
	})
	if got := s.MiddleExtra(2001, 3, 5); got != 40 {
		t.Errorf("scoped fault on its cloud = %v", got)
	}
	if got := s.MiddleExtra(2001, 4, 5); got != 0 {
		t.Errorf("scoped fault on another cloud = %v", got)
	}
	if got := s.MiddleExtra(2002, 7, 5); got != 25 {
		t.Errorf("unscoped fault = %v", got)
	}
}

func TestScheduleClientExtra(t *testing.T) {
	s := NewSchedule([]Fault{
		{Kind: ClientASFault, AS: 10001, Start: 0, Duration: 10, ExtraMS: 50},
		{Kind: ClientPrefixFault, Prefix: 7, Start: 0, Duration: 10, ExtraMS: 15},
	})
	if got := s.ClientExtra(7, 10001, 5); got != 65 {
		t.Errorf("AS + prefix fault = %v", got)
	}
	if got := s.ClientExtra(8, 10001, 5); got != 50 {
		t.Errorf("AS fault only = %v", got)
	}
	if got := s.ClientExtra(8, 10002, 5); got != 0 {
		t.Errorf("unrelated prefix = %v", got)
	}
}

func TestShiftTarget(t *testing.T) {
	s := NewSchedule([]Fault{
		{Kind: TrafficShift, Cloud: 9, ShiftPrefixes: []netmodel.PrefixID{1, 2}, Start: 5, Duration: 5},
	})
	if _, ok := s.ShiftTarget(1, 4); ok {
		t.Error("shift before start")
	}
	if c, ok := s.ShiftTarget(1, 6); !ok || c != 9 {
		t.Errorf("shift during = %v,%v", c, ok)
	}
	if _, ok := s.ShiftTarget(3, 6); ok {
		t.Error("unshifted prefix reported as shifted")
	}
}

func TestTruth(t *testing.T) {
	w := testWorld()
	cloudF := Fault{Kind: CloudFault, Cloud: w.Clouds[0].ID}
	if gt := cloudF.Truth(w); gt.Segment != netmodel.SegCloud || gt.AS != w.CloudASN() {
		t.Errorf("cloud truth = %+v", gt)
	}
	mid := w.Tier1s[0]
	midF := Fault{Kind: MiddleASFault, AS: mid}
	if gt := midF.Truth(w); gt.Segment != netmodel.SegMiddle || gt.AS != mid {
		t.Errorf("middle truth = %+v", gt)
	}
	eye := w.Eyeballs[netmodel.RegionUSA][0]
	cliF := Fault{Kind: ClientASFault, AS: eye}
	if gt := cliF.Truth(w); gt.Segment != netmodel.SegClient || gt.AS != eye {
		t.Errorf("client truth = %+v", gt)
	}
	p := w.Prefixes[0]
	pF := Fault{Kind: ClientPrefixFault, Prefix: p.ID}
	if gt := pF.Truth(w); gt.Segment != netmodel.SegClient || gt.AS != p.AS {
		t.Errorf("prefix truth = %+v", gt)
	}
}

func TestTrafficShiftTruthIsMiddle(t *testing.T) {
	w := testWorld()
	r := rand.New(rand.NewSource(1))
	sc := ScenarioTrafficShiftEastAsia(w, 0, r)
	if sc.Truth.Segment != netmodel.SegMiddle {
		t.Errorf("traffic shift truth segment = %v", sc.Truth.Segment)
	}
	if len(sc.Fault.ShiftPrefixes) == 0 {
		t.Fatal("no prefixes shifted")
	}
	// The blamed AS must actually be on the shifted path's middle.
	bp := w.Prefixes[sc.Fault.ShiftPrefixes[0]].BGPPrefix
	path := w.InitialPath(sc.Fault.Cloud, bp)
	found := false
	for _, a := range path.Middle {
		if a == sc.Truth.AS {
			found = true
		}
	}
	if !found {
		t.Error("truth AS not on the shifted path")
	}
	// Shift target must be a USA location while clients are East Asian.
	if w.Clouds[sc.Fault.Cloud].Region != netmodel.RegionUSA {
		t.Error("shift target not in USA")
	}
}

func TestCaseStudiesCoverAllSegments(t *testing.T) {
	w := testWorld()
	scs := CaseStudies(w, 1)
	if len(scs) != 5 {
		t.Fatalf("case studies = %d", len(scs))
	}
	segs := make(map[netmodel.Segment]int)
	for _, sc := range scs {
		segs[sc.Truth.Segment]++
		if sc.Name == "" || sc.Desc == "" {
			t.Error("scenario missing name/description")
		}
	}
	if segs[netmodel.SegCloud] < 2 || segs[netmodel.SegMiddle] < 2 || segs[netmodel.SegClient] < 1 {
		t.Errorf("segment mix = %v", segs)
	}
	// Scenarios must not overlap in time (they are investigated separately).
	for i := 0; i < len(scs); i++ {
		for j := i + 1; j < len(scs); j++ {
			a, b := scs[i].Fault, scs[j].Fault
			if a.Start < b.End() && b.Start < a.End() {
				t.Errorf("scenarios %s and %s overlap", scs[i].Name, scs[j].Name)
			}
		}
	}
}

func TestIncidentBattery(t *testing.T) {
	w := testWorld()
	scs := IncidentBattery(w, 88, 10, 6, 7)
	if len(scs) != 88 {
		t.Fatalf("battery size = %d", len(scs))
	}
	kinds := make(map[Kind]int)
	for _, sc := range scs {
		kinds[sc.Fault.Kind]++
		if sc.Fault.Duration < 6 {
			t.Error("battery incident too short to investigate")
		}
		if sc.Fault.ExtraMS < 40 {
			t.Error("battery incident too weak")
		}
	}
	if kinds[CloudFault] == 0 || kinds[MiddleASFault] == 0 || kinds[ClientASFault] == 0 {
		t.Errorf("battery kind mix = %v", kinds)
	}
}

func TestGenerateSchedule(t *testing.T) {
	w := testWorld()
	horizon := netmodel.Bucket(3 * netmodel.BucketsPerDay)
	s := Generate(w, DefaultGenerateConfig(), horizon, 13)
	if len(s.Faults) == 0 {
		t.Fatal("no faults generated")
	}
	kinds := make(map[Kind]int)
	for _, f := range s.Faults {
		kinds[f.Kind]++
		if f.Start < 0 || f.Start >= horizon {
			t.Error("fault start out of horizon")
		}
		if f.Duration < 1 {
			t.Error("fault with no duration")
		}
		if f.Kind != TrafficShift && f.ExtraMS <= 0 {
			t.Error("fault with no magnitude")
		}
	}
	if kinds[CloudFault] >= kinds[MiddleASFault] {
		t.Errorf("cloud faults must stay rare relative to middle faults: %v", kinds)
	}
	// Determinism.
	s2 := Generate(w, DefaultGenerateConfig(), horizon, 13)
	if len(s2.Faults) != len(s.Faults) {
		t.Fatal("generator not deterministic")
	}
	for i := range s.Faults {
		if s.Faults[i].Start != s2.Faults[i].Start || s.Faults[i].ExtraMS != s2.Faults[i].ExtraMS {
			t.Fatal("generator not deterministic in fault details")
		}
	}
}
