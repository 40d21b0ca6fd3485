package sim

import (
	"math"
	"reflect"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/stats"
	"blameit/internal/topology"
)

// rig bundles a small world with a simulator over the given schedule.
type rig struct {
	w   *topology.World
	tbl *bgp.Table
	sim *Simulator
}

func newRig(t testing.TB, fs []faults.Fault, horizonDays int) *rig {
	t.Helper()
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.Bucket(horizonDays*netmodel.BucketsPerDay), 7)
	s := New(w, tbl, faults.NewSchedule(fs), DefaultConfig(99))
	return &rig{w: w, tbl: tbl, sim: s}
}

func TestMeanRTTMatchesBaseWithoutFaults(t *testing.T) {
	r := newRig(t, nil, 1)
	cfg := DefaultConfig(99)
	cfg.DriftMS = 0 // isolate the base-RTT identity from slow drift
	r.sim = New(r.w, r.tbl, r.sim.Sched, cfg)
	p := r.w.Prefixes[0]
	c := r.w.Attachments(p.ID)[0].Cloud
	// At an early-morning bucket the diurnal extra is near zero.
	var quiet netmodel.Bucket = -1
	for b := netmodel.Bucket(0); b < netmodel.BucketsPerDay; b++ {
		if r.sim.DiurnalClientExtra(p.ID, b) < 0.5 {
			quiet = b
			break
		}
	}
	if quiet < 0 {
		t.Fatal("no quiet bucket found")
	}
	base := r.w.BasePathRTT(r.w.InitialPath(c, p.BGPPrefix), p.ID)
	got := r.sim.MeanRTT(p.ID, c, quiet)
	if math.Abs(got-base) > 1.0 {
		t.Errorf("quiet-hour RTT %v differs from base %v", got, base)
	}
}

func TestCloudFaultRaisesRTTForAllClients(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	c := w.Clouds[0]
	f := faults.Fault{Kind: faults.CloudFault, Cloud: c.ID, ScopeCloud: faults.NoCloud, Start: 10, Duration: 5, ExtraMS: 50}
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	s := New(w, tbl, faults.NewSchedule([]faults.Fault{f}), DefaultConfig(99))
	for _, p := range w.Prefixes[:20] {
		before := s.MeanRTT(p.ID, c.ID, 9)
		during := s.MeanRTT(p.ID, c.ID, 12)
		if during-before < 45 {
			t.Fatalf("prefix %d: fault raised RTT by only %.1f", p.ID, during-before)
		}
	}
}

func TestMiddleFaultAffectsOnlyPathsThroughAS(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	as := w.Tier1s[0]
	f := faults.Fault{Kind: faults.MiddleASFault, AS: as, ScopeCloud: faults.NoCloud, Start: 10, Duration: 5, ExtraMS: 60}
	s := New(w, tbl, faults.NewSchedule([]faults.Fault{f}), DefaultConfig(99))
	affected, unaffected := 0, 0
	for _, p := range w.Prefixes {
		for _, c := range w.Clouds {
			path := tbl.PathAtForPrefix(c.ID, p.ID, 12)
			onPath := false
			for _, m := range path.Middle {
				if m == as {
					onPath = true
				}
			}
			delta := s.MeanRTT(p.ID, c.ID, 12) - s.MeanRTT(p.ID, c.ID, 9)
			if onPath {
				affected++
				if delta < 55 {
					t.Fatalf("on-path pair saw delta %.1f", delta)
				}
			} else {
				unaffected++
				if delta > 10 {
					t.Fatalf("off-path pair saw delta %.1f", delta)
				}
			}
		}
	}
	if affected == 0 || unaffected == 0 {
		t.Fatalf("degenerate split: %d affected, %d unaffected", affected, unaffected)
	}
}

func TestScopedMiddleFault(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	as := w.Tier1s[0]
	scope := w.Clouds[0].ID
	f := faults.Fault{Kind: faults.MiddleASFault, AS: as, ScopeCloud: scope, Start: 10, Duration: 5, ExtraMS: 60}
	s := New(w, tbl, faults.NewSchedule([]faults.Fault{f}), DefaultConfig(99))
	// Find a prefix whose paths from two different clouds both traverse as.
	for _, p := range w.Prefixes {
		onScope, onOther := false, netmodel.CloudID(-1)
		for _, c := range w.Clouds {
			path := tbl.PathAtForPrefix(c.ID, p.ID, 12)
			for _, m := range path.Middle {
				if m != as {
					continue
				}
				if c.ID == scope {
					onScope = true
				} else {
					onOther = c.ID
				}
			}
		}
		if onScope && onOther >= 0 {
			dScoped := s.MeanRTT(p.ID, scope, 12) - s.MeanRTT(p.ID, scope, 9)
			dOther := s.MeanRTT(p.ID, onOther, 12) - s.MeanRTT(p.ID, onOther, 9)
			if dScoped < 55 {
				t.Errorf("scoped cloud delta %.1f too small", dScoped)
			}
			if dOther > 10 {
				t.Errorf("other cloud delta %.1f; scope leaked", dOther)
			}
			return
		}
	}
	t.Skip("no prefix traverses the AS from both the scoped and another cloud")
}

func TestDiurnalShape(t *testing.T) {
	r := newRig(t, nil, 7)
	p := r.w.Prefixes[0]
	// Average congestion at 21h must exceed the 06h value for the typical AS.
	evening := netmodel.Bucket(21 * netmodel.BucketsPerHour)
	morning := netmodel.Bucket(6 * netmodel.BucketsPerHour)
	totEve, totMor := 0.0, 0.0
	for _, pp := range r.w.Prefixes {
		totEve += r.sim.DiurnalClientExtra(pp.ID, evening)
		totMor += r.sim.DiurnalClientExtra(pp.ID, morning)
	}
	if totEve < totMor*2 {
		t.Errorf("evening congestion (%.1f) not clearly above morning (%.1f)", totEve, totMor)
	}
	_ = p
}

func TestWeekendDampensDiurnal(t *testing.T) {
	r := newRig(t, nil, 7)
	evening := 21 * netmodel.BucketsPerHour
	weekday := netmodel.Bucket(evening)                            // day 0, Monday
	weekend := netmodel.Bucket(5*netmodel.BucketsPerDay + evening) // day 5, Saturday
	var wk, we float64
	for _, p := range r.w.Prefixes {
		wk += r.sim.DiurnalClientExtra(p.ID, weekday)
		we += r.sim.DiurnalClientExtra(p.ID, weekend)
	}
	if we >= wk {
		t.Errorf("weekend congestion (%.1f) not dampened vs weekday (%.1f)", we, wk)
	}
}

func TestObservationsDeterministic(t *testing.T) {
	r := newRig(t, nil, 1)
	a := r.sim.ObservationsAt(10, nil)
	b := r.sim.ObservationsAt(10, nil)
	if len(a) != len(b) {
		t.Fatal("observation counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("observations not deterministic")
		}
	}
	if len(a) == 0 {
		t.Fatal("no observations generated")
	}
}

// TestProviderStreamsDeterministic: the observation stream is a pure
// function of (world, seeds, bucket) — two simulators built alike agree,
// and repeated reads agree with themselves. The name predates the single
// cloud; the property it checks is the stream's, not a provider's.
func TestProviderStreamsDeterministic(t *testing.T) {
	a := newRig(t, nil, 1).sim
	b := newRig(t, nil, 1).sim
	for bk := netmodel.Bucket(0); bk < 4; bk++ {
		x := a.ObservationsAt(bk, nil)
		y := b.ObservationsAt(bk, nil)
		if len(x) == 0 {
			t.Fatalf("bucket %d: empty stream", bk)
		}
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("bucket %d: streams differ across identical simulators", bk)
		}
		if again := a.ObservationsAt(bk, nil); !reflect.DeepEqual(x, again) {
			t.Fatalf("bucket %d: re-read differs", bk)
		}
	}
}

func TestObservationsShape(t *testing.T) {
	r := newRig(t, nil, 1)
	obs := r.sim.ObservationsAt(netmodel.Bucket(20*netmodel.BucketsPerHour), nil)
	withEnough := 0
	for _, o := range obs {
		if o.Samples <= 0 || o.MeanRTT <= 0 || o.Clients <= 0 {
			t.Fatalf("degenerate observation %+v", o)
		}
		if o.Device != r.w.Prefixes[o.Prefix].Device {
			t.Fatal("device class mismatch")
		}
		if o.Samples >= 10 {
			withEnough++
		}
	}
	if frac := float64(withEnough) / float64(len(obs)); frac < 0.3 {
		t.Errorf("only %.0f%% of quartets have >=10 samples", frac*100)
	}
}

func TestObservationNoiseShrinksWithSamples(t *testing.T) {
	// Quartets with many samples should have relative error smaller than
	// sparse ones on average.
	r := newRig(t, nil, 1)
	b := netmodel.Bucket(20 * netmodel.BucketsPerHour)
	var bigErr, smallErr stats.Welford
	for _, o := range r.sim.ObservationsAt(b, nil) {
		mean := r.sim.MeanRTT(o.Prefix, o.Cloud, b)
		rel := math.Abs(o.MeanRTT-mean) / mean
		if o.Samples >= 50 {
			bigErr.Add(rel)
		} else if o.Samples < 10 {
			smallErr.Add(rel)
		}
	}
	if bigErr.N() < 5 || smallErr.N() < 5 {
		t.Skip("not enough quartets in both classes")
	}
	if bigErr.Mean() >= smallErr.Mean() {
		t.Errorf("relative error with many samples (%.4f) not below sparse (%.4f)", bigErr.Mean(), smallErr.Mean())
	}
}

func TestDominantInflationCloudFault(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	c := w.Clouds[0]
	f := faults.Fault{Kind: faults.CloudFault, Cloud: c.ID, ScopeCloud: faults.NoCloud, Start: 10, Duration: 5, ExtraMS: 50}
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	s := New(w, tbl, faults.NewSchedule([]faults.Fault{f}), DefaultConfig(99))
	// Pick a quiet-hour bucket inside the fault to avoid diurnal competition.
	p := w.Prefixes[0]
	inf := s.DominantInflation(p.ID, c.ID, 12)
	if inf.Segment != netmodel.SegCloud || inf.AS != w.CloudASN() {
		t.Errorf("dominant inflation = %+v, want cloud", inf)
	}
	if !inf.Dominant && s.DiurnalClientExtra(p.ID, 12) < 10 {
		t.Errorf("cloud fault not dominant: %+v", inf)
	}
}

func TestDominantInflationClientFault(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	p := w.Prefixes[0]
	f := faults.Fault{Kind: faults.ClientPrefixFault, Prefix: p.ID, Start: 10, Duration: 5, ExtraMS: 70}
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	s := New(w, tbl, faults.NewSchedule([]faults.Fault{f}), DefaultConfig(99))
	c := w.Attachments(p.ID)[0].Cloud
	inf := s.DominantInflation(p.ID, c, 12)
	if inf.Segment != netmodel.SegClient || inf.AS != p.AS {
		t.Errorf("dominant inflation = %+v, want client AS %d", inf, p.AS)
	}
}

func TestTrafficShiftReattachesAndInflatesMiddle(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	// Find an East-Asian prefix.
	var victim netmodel.PrefixID = -1
	for _, p := range w.Prefixes {
		if w.PrefixRegion(p.ID) == netmodel.RegionEastAsia {
			victim = p.ID
			break
		}
	}
	if victim < 0 {
		t.Fatal("no East-Asian prefix")
	}
	target := w.CloudsInRegion(netmodel.RegionUSA)[0]
	f := faults.Fault{
		Kind: faults.TrafficShift, Cloud: target, ShiftPrefixes: []netmodel.PrefixID{victim},
		Start: 10, Duration: 5, ExtraMS: 40,
	}
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	s := New(w, tbl, faults.NewSchedule([]faults.Fault{f}), DefaultConfig(99))

	// During the shift the prefix connects only to the US location.
	obs := s.ObservationsAt(12, nil)
	for _, o := range obs {
		if o.Prefix == victim && o.Cloud != target {
			t.Fatal("shifted prefix still observed at home cloud")
		}
	}
	// And its dominant inflation on that pair is the middle segment.
	inf := s.DominantInflation(victim, target, 12)
	if inf.Segment != netmodel.SegMiddle {
		t.Errorf("shift inflation = %+v, want middle", inf)
	}
	// RTT through the shifted pair must be far above the prefix's home RTT.
	home := w.Attachments(victim)[0].Cloud
	if s.MeanRTT(victim, target, 12) < s.MeanRTT(victim, home, 9)+50 {
		t.Error("shift did not raise the client's experienced RTT substantially")
	}
}

func TestContributionsSumToMeanRTT(t *testing.T) {
	r := newRig(t, nil, 1)
	p := r.w.Prefixes[5]
	c := r.w.Attachments(p.ID)[0].Cloud
	var sum float64
	for _, con := range r.sim.Contributions(p.ID, c, 33) {
		sum += con.MS
	}
	if math.Abs(sum-r.sim.MeanRTT(p.ID, c, 33)) > 1e-9 {
		t.Error("contributions do not sum to MeanRTT")
	}
}

func BenchmarkObservationsAt(b *testing.B) {
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	s := New(w, tbl, faults.NewSchedule(nil), DefaultConfig(99))
	var buf []Observation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.ObservationsAt(netmodel.Bucket(i%netmodel.BucketsPerDay), buf[:0])
	}
}

func TestResolvePrefixCoversAllPrefixes(t *testing.T) {
	r := newRig(t, nil, 1)
	for _, p := range r.w.Prefixes {
		got, ok := r.w.ResolvePrefix(p.Base)
		if !ok || got != p.ID {
			t.Fatalf("ResolvePrefix(%08x) = %v,%v want %v", p.Base, got, ok, p.ID)
		}
	}
	if _, ok := r.w.ResolvePrefix(0xDEADBEEF); ok {
		t.Error("unknown base resolved")
	}
}

// TestSeededFollowsSeedConvention pins the one seed convention producers
// and the daemon share: Seeded must build exactly what the literal
// derivation (faults at seed+1, churn at seed+2, simulator at seed+3)
// builds, which is how the benchmark's reference world is written.
func TestSeededFollowsSeedConvention(t *testing.T) {
	const seed = 42
	horizon := netmodel.Bucket(4 * netmodel.BucketsPerDay)
	got, err := Seeded(topology.SmallScale(), seed, "random", horizon, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := topology.Generate(topology.SmallScale(), seed)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), horizon, seed+1).Faults
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, seed+2)
	cfg := DefaultConfig(seed + 3)
	cfg.Workers = 1
	want := New(w, tbl, faults.NewSchedule(fs), cfg)

	if len(want.Sched.Faults) == 0 || !reflect.DeepEqual(got.Sched.Faults, want.Sched.Faults) {
		t.Fatalf("fault list: Seeded has %d faults, the literal build %d, or they differ",
			len(got.Sched.Faults), len(want.Sched.Faults))
	}
	for _, b := range []netmodel.Bucket{0, 287, 1151} {
		g, w := got.ObservationsAt(b, nil), want.ObservationsAt(b, nil)
		if len(w) == 0 || !reflect.DeepEqual(g, w) {
			t.Fatalf("bucket %d: Seeded yields %d observations, the literal build %d, or they differ", b, len(g), len(w))
		}
	}

	if _, err := Seeded(topology.SmallScale(), seed, "cases", horizon, 1, nil); err == nil {
		t.Error("unknown workload accepted")
	}
}
