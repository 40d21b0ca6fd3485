package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/quartet"
	"blameit/internal/trace"
)

// fixedPaths builds a PathFunc from a (prefix, cloud) -> path map.
type pcKey struct {
	p netmodel.PrefixID
	c netmodel.CloudID
}

func pathFunc(m map[pcKey]netmodel.Path) PathFunc {
	return func(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) netmodel.Path {
		path, ok := m[pcKey{p, c}]
		if !ok {
			panic(fmt.Sprintf("no path for prefix %d cloud %d", p, c))
		}
		return path
	}
}

// mkQuartet builds a classified quartet.
func mkQuartet(p int, c int, rtt float64, target float64, samples int) quartet.Quartet {
	o := trace.Observation{
		Prefix: netmodel.PrefixID(p), Cloud: netmodel.CloudID(c),
		Device: netmodel.NonMobile, Bucket: 7, Samples: samples, MeanRTT: rtt,
	}
	return quartet.Classify(o, target)
}

const cloudASN = netmodel.ASN(8075)

// staticTh is StaticThresholds over a key space holding every middle key
// it is given, standing in for the BGP table's.
func staticTh(cloud map[netmodel.CloudID]float64, middle map[netmodel.MiddleKey]float64) *Thresholds {
	var ks []netmodel.MiddleKey
	for k := range middle {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	keys := new(netmodel.KeySpace)
	for _, k := range ks {
		keys.Intern(k)
	}
	return StaticThresholds(keys, cloud, middle)
}

// simplePath gives every (prefix, cloud) a one-AS middle keyed by the given
// transit, with client AS 100+prefix.
func simplePath(c int, middle netmodel.ASN, client netmodel.ASN) netmodel.Path {
	return netmodel.Path{Cloud: netmodel.CloudID(c), Middle: []netmodel.ASN{middle}, Client: client}
}

func TestBlameCloudWhenAllClientsBad(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	// 20 prefixes across two middles, all inflated: the cloud is the
	// smaller failure set (Insight-2).
	for p := 0; p < 20; p++ {
		mid := netmodel.ASN(2000 + p%2)
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, mid, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 90, 50, 20))
	}
	th := staticTh(map[netmodel.CloudID]float64{1: 40}, nil)
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	rs := l.Localize(qs)
	if len(rs) != 20 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if r.Blame != BlameCloud {
			t.Fatalf("blame = %v, want cloud", r.Blame)
		}
		if r.BlamedAS != cloudASN {
			t.Fatalf("blamed AS = %d", r.BlamedAS)
		}
	}
}

func TestBlameMiddleWhenOnePathBad(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	// 10 prefixes on the faulty middle (AS 2001), all bad.
	for p := 0; p < 10; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 95, 50, 20))
	}
	// 30 prefixes on a healthy middle keep the cloud aggregate below tau.
	for p := 10; p < 40; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2002, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 30, 50, 20))
	}
	badKey := simplePath(1, 2001, 0).Key()
	goodKey := simplePath(1, 2002, 0).Key()
	th := staticTh(
		map[netmodel.CloudID]float64{1: 35},
		map[netmodel.MiddleKey]float64{badKey: 38, goodKey: 38},
	)
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	rs := l.Localize(qs)
	if len(rs) != 10 {
		t.Fatalf("results = %d, want only the 10 bad quartets", len(rs))
	}
	for _, r := range rs {
		if r.Blame != BlameMiddle {
			t.Fatalf("blame = %v, want middle", r.Blame)
		}
		if r.Path.Key() != badKey {
			t.Fatal("middle verdict carries the wrong path")
		}
	}
}

// TestCoarseGroupsReadNoMiddleThreshold pins the rule that keeps the two
// key spaces apart: under a coarser grouping a middle aggregate is compared
// against the static target, never against a learned threshold — not even
// the one stored under the ID the coarse group happens to share. Six
// quartets share one coarse group (ID 0) and one path, whose key is ID 0
// of the thresholds' space with an expected RTT of 10 ms: read through the
// coarse ID, that threshold would make all six bad and blame the middle;
// against the 50 ms target only four are, short of τ, so each of the four
// bad quartets is its client's fault.
func TestCoarseGroupsReadNoMiddleThreshold(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	for p := 0; p < 6; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		rtt := 60.0
		if p >= 4 {
			rtt = 40
		}
		qs = append(qs, mkQuartet(p, 1, rtt, 50, 20))
	}
	// Enough good quartets on another path that the cloud is not blamed.
	for p := 6; p < 30; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2002, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 30, 50, 20))
	}
	th := staticTh(nil, map[netmodel.MiddleKey]float64{simplePath(1, 2001, 0).Key(): 10})
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	// Group by the middle AS: the six quartets on AS 2001 come first, so
	// their group is coarse ID 0.
	l.SetMiddleKeyFunc(func(path netmodel.Path, _ netmodel.PrefixID) netmodel.MiddleKey {
		return netmodel.MiddleKey(fmt.Sprintf("as%d", path.Middle[0]))
	})
	rs := l.Localize(qs)
	if len(rs) != 4 {
		t.Fatalf("results = %d, want the 4 bad quartets", len(rs))
	}
	for _, r := range rs {
		if r.Blame != BlameClient {
			t.Errorf("prefix %d: blame = %v, want client", r.Q.Obs.Prefix, r.Blame)
		}
	}
}

func TestBlameClientWhenIsolated(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	// One bad prefix among many good ones sharing its middle.
	for p := 0; p < 12; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		rtt := 30.0
		if p == 0 {
			rtt = 120
		}
		qs = append(qs, mkQuartet(p, 1, rtt, 50, 20))
	}
	th := staticTh(map[netmodel.CloudID]float64{1: 35},
		map[netmodel.MiddleKey]float64{simplePath(1, 2001, 0).Key(): 35})
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	rs := l.Localize(qs)
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Blame != BlameClient {
		t.Fatalf("blame = %v, want client", rs[0].Blame)
	}
	if rs[0].BlamedAS != 100 {
		t.Fatalf("blamed AS = %d, want the client AS 100", rs[0].BlamedAS)
	}
}

func TestBlameAmbiguousWhenGoodElsewhere(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	for p := 0; p < 12; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		rtt := 30.0
		if p == 0 {
			rtt = 120
		}
		qs = append(qs, mkQuartet(p, 1, rtt, 50, 20))
	}
	// Prefix 0 also reaches cloud 2 with good RTT in the same window.
	paths[pcKey{0, 2}] = simplePath(2, 2005, 100)
	qs = append(qs, mkQuartet(0, 2, 25, 50, 20))
	// Cloud 2 needs company to pass its aggregate gate — irrelevant here
	// since only cloud 1's bad quartet is localized.
	th := staticTh(map[netmodel.CloudID]float64{1: 35, 2: 35},
		map[netmodel.MiddleKey]float64{simplePath(1, 2001, 0).Key(): 35})
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	rs := l.Localize(qs)
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Blame != BlameAmbiguous {
		t.Fatalf("blame = %v, want ambiguous", rs[0].Blame)
	}
}

func TestBlameInsufficientCloudAggregate(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	// Only 3 quartets at the cloud: below the MinAggregate of 5.
	for p := 0; p < 3; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 90, 50, 20))
	}
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), nil)
	rs := l.Localize(qs)
	for _, r := range rs {
		if r.Blame != BlameInsufficient {
			t.Fatalf("blame = %v, want insufficient", r.Blame)
		}
	}
}

func TestBlameInsufficientMiddleAggregate(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	// Plenty of quartets at the cloud (mostly good), but the bad quartet's
	// middle has only itself.
	paths[pcKey{0, 1}] = simplePath(1, 2009, 100)
	qs = append(qs, mkQuartet(0, 1, 120, 50, 20))
	for p := 1; p < 12; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 30, 50, 20))
	}
	th := staticTh(map[netmodel.CloudID]float64{1: 35}, nil)
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	rs := l.Localize(qs)
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Blame != BlameInsufficient {
		t.Fatalf("blame = %v, want insufficient (middle aggregate too small)", rs[0].Blame)
	}
}

// TestExactlyMinAggregateCloudIsDecidable pins the Algorithm 1 gate at its
// stated boundary: an aggregate with exactly MinAggregate (5) quartets is
// enough to decide, one fewer is not. (Regression: the gate used to demand
// MinAggregate+1.)
func TestExactlyMinAggregateCloudIsDecidable(t *testing.T) {
	build := func(n int) []Result {
		paths := make(map[pcKey]netmodel.Path)
		var qs []quartet.Quartet
		for p := 0; p < n; p++ {
			paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, netmodel.ASN(2000+p), netmodel.ASN(100+p))
			qs = append(qs, mkQuartet(p, 1, 90, 50, 20))
		}
		th := staticTh(map[netmodel.CloudID]float64{1: 40}, nil)
		l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
		return l.Localize(qs)
	}

	min := DefaultConfig().MinAggregate // 5, per Algorithm 1
	for _, r := range build(min) {
		if r.Blame != BlameCloud {
			t.Fatalf("exactly MinAggregate quartets: blame = %v, want cloud", r.Blame)
		}
	}
	for _, r := range build(min - 1) {
		if r.Blame != BlameInsufficient {
			t.Fatalf("MinAggregate-1 quartets: blame = %v, want insufficient", r.Blame)
		}
	}
}

// TestExactlyMinAggregateMiddleIsDecidable pins the same boundary on the
// middle aggregate.
func TestExactlyMinAggregateMiddleIsDecidable(t *testing.T) {
	build := func(onMiddle int) []Result {
		paths := make(map[pcKey]netmodel.Path)
		var qs []quartet.Quartet
		// onMiddle bad quartets share the faulty middle 2001.
		for p := 0; p < onMiddle; p++ {
			paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
			qs = append(qs, mkQuartet(p, 1, 95, 50, 20))
		}
		// 30 good quartets elsewhere keep the cloud aggregate healthy.
		for p := onMiddle; p < onMiddle+30; p++ {
			paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2002, netmodel.ASN(100+p))
			qs = append(qs, mkQuartet(p, 1, 30, 50, 20))
		}
		th := staticTh(
			map[netmodel.CloudID]float64{1: 35},
			map[netmodel.MiddleKey]float64{
				simplePath(1, 2001, 0).Key(): 38,
				simplePath(1, 2002, 0).Key(): 38,
			})
		l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
		return l.Localize(qs)
	}

	min := DefaultConfig().MinAggregate
	rs := build(min)
	if len(rs) != min {
		t.Fatalf("results = %d, want %d", len(rs), min)
	}
	for _, r := range rs {
		if r.Blame != BlameMiddle {
			t.Fatalf("exactly MinAggregate on the middle: blame = %v, want middle", r.Blame)
		}
	}
	for _, r := range build(min - 1) {
		if r.Blame != BlameInsufficient {
			t.Fatalf("MinAggregate-1 on the middle: blame = %v, want insufficient", r.Blame)
		}
	}
}

// TestEqualityAtExpectedRTTCountsBad locks the unified >= convention: a
// quartet whose mean RTT sits exactly at the learned expected RTT counts
// as bad in the aggregate, the same way quartet.Classify counts a mean
// exactly at the target as bad. (Regression: the aggregates used strict >.)
func TestEqualityAtExpectedRTTCountsBad(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	// Every quartet's mean RTT is exactly the cloud's expected RTT (45)
	// and above the static badness target (40), so all are bad quartets
	// and the cloud bad-fraction must be 1.0, not 0.0.
	for p := 0; p < 10; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, netmodel.ASN(2000+p%2), netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 45, 40, 20))
	}
	th := staticTh(map[netmodel.CloudID]float64{1: 45}, nil)
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	rs := l.Localize(qs)
	if len(rs) != 10 {
		t.Fatalf("results = %d, want 10", len(rs))
	}
	for _, r := range rs {
		if r.Blame != BlameCloud {
			t.Fatalf("RTT exactly at expected: blame = %v, want cloud", r.Blame)
		}
	}
}

// TestEqualityAtExpectedMiddleCountsBad locks the >= convention on the
// middle aggregate too.
func TestEqualityAtExpectedMiddleCountsBad(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	// 10 bad quartets whose RTT equals the middle's expected RTT exactly.
	for p := 0; p < 10; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 45, 40, 20))
	}
	// 30 good quartets on another middle keep the cloud fraction low.
	for p := 10; p < 40; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2002, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 20, 40, 20))
	}
	th := staticTh(
		map[netmodel.CloudID]float64{1: 50}, // cloud never looks bad
		map[netmodel.MiddleKey]float64{
			simplePath(1, 2001, 0).Key(): 45, // equality on the faulty middle
			simplePath(1, 2002, 0).Key(): 45,
		})
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	rs := l.Localize(qs)
	if len(rs) != 10 {
		t.Fatalf("results = %d, want 10", len(rs))
	}
	for _, r := range rs {
		if r.Blame != BlameMiddle {
			t.Fatalf("RTT exactly at middle expected: blame = %v, want middle", r.Blame)
		}
	}
}

// TestWorkedExampleSection43 reproduces the §4.3 worked example: with RTTs
// uniform in [40,70] after a cloud fault, a 50ms static threshold sees only
// 1/3 of quartets bad (no cloud blame at τ=0.8), while the learned 40ms
// expected RTT sees all of them shifted and correctly blames the cloud.
func TestWorkedExampleSection43(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	n := 30
	for p := 0; p < n; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, netmodel.ASN(2000+p%3), netmodel.ASN(100+p))
		// RTTs spread uniformly across [40, 70].
		rtt := 40 + 30*float64(p)/float64(n-1)
		qs = append(qs, mkQuartet(p, 1, rtt, 50, 20))
	}
	th := staticTh(map[netmodel.CloudID]float64{1: 40}, nil)

	// With learned expected RTT: every bad quartet blames the cloud.
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	for _, r := range l.Localize(qs) {
		if r.Blame != BlameCloud {
			t.Fatalf("with expected RTT: blame = %v, want cloud", r.Blame)
		}
	}

	// Ablation: using the static 50ms threshold instead, the bad fraction
	// is ~1/3 < τ and the cloud escapes blame.
	cfg := DefaultConfig()
	cfg.UseExpectedRTT = false
	l2 := NewLocalizer(cfg, cloudASN, pathFunc(paths), th)
	for _, r := range l2.Localize(qs) {
		if r.Blame == BlameCloud {
			t.Fatal("without expected RTT the cloud should escape blame")
		}
	}
}

// TestUnweightedBadFraction verifies the deliberate design choice in
// CalcBadFraction: a single high-traffic good /24 must not mask badness
// seen by many low-traffic /24s. Weighting by samples (the ablation) does
// mask it.
func TestUnweightedBadFraction(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	// 9 bad low-traffic prefixes and 1 good whale share a middle segment.
	for p := 0; p < 9; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 95, 50, 12))
	}
	paths[pcKey{9, 1}] = simplePath(1, 2001, 109)
	qs = append(qs, mkQuartet(9, 1, 30, 50, 5000))
	// Keep the cloud aggregate healthy with a separate good middle.
	for p := 10; p < 50; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2002, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 30, 50, 20))
	}
	th := staticTh(map[netmodel.CloudID]float64{1: 35},
		map[netmodel.MiddleKey]float64{
			simplePath(1, 2001, 0).Key(): 38,
			simplePath(1, 2002, 0).Key(): 38,
		})

	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), th)
	for _, r := range l.Localize(qs) {
		if r.Blame != BlameMiddle {
			t.Fatalf("unweighted: blame = %v, want middle", r.Blame)
		}
	}

	cfg := DefaultConfig()
	cfg.WeightBySamples = true
	l2 := NewLocalizer(cfg, cloudASN, pathFunc(paths), th)
	for _, r := range l2.Localize(qs) {
		if r.Blame == BlameMiddle {
			t.Fatal("weighted ablation should mask the middle issue")
		}
	}
}

func TestInsufficientSamplesExcluded(t *testing.T) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	for p := 0; p < 10; p++ {
		paths[pcKey{netmodel.PrefixID(p), 1}] = simplePath(1, 2001, netmodel.ASN(100+p))
		qs = append(qs, mkQuartet(p, 1, 95, 50, 3)) // below MinSamples
	}
	l := NewLocalizer(DefaultConfig(), cloudASN, pathFunc(paths), nil)
	if rs := l.Localize(qs); len(rs) != 0 {
		t.Fatalf("under-sampled quartets produced %d verdicts", len(rs))
	}
}

func TestSummarize(t *testing.T) {
	rs := []Result{{Blame: BlameCloud}, {Blame: BlameCloud}, {Blame: BlameClient}}
	s := Summarize(rs)
	if s[BlameCloud] != 2 || s[BlameClient] != 1 {
		t.Errorf("summary = %v", s)
	}
}

func TestBlameString(t *testing.T) {
	names := map[Blame]string{
		BlameNone: "none", BlameInsufficient: "insufficient", BlameCloud: "cloud",
		BlameMiddle: "middle", BlameAmbiguous: "ambiguous", BlameClient: "client",
	}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("%v != %s", b, want)
		}
	}
	if Blame(42).String() != "Blame(42)" {
		t.Error("unknown blame formatting")
	}
	if len(Categories()) != 5 {
		t.Error("Categories must list 5 verdicts")
	}
}

// naiveKey is the middle key a quartet on path is grouped by.
func naiveKey(l *Localizer, path netmodel.Path, p netmodel.PrefixID) netmodel.MiddleKey {
	if l.keyOf != nil {
		return l.keyOf(path, p)
	}
	return path.Key()
}

// naiveExpectedMiddle looks a middle aggregate's reference RTT up by its
// key string, whatever the grouping.
func naiveExpectedMiddle(l *Localizer, k netmodel.MiddleKey, d netmodel.DeviceClass, fallback float64) float64 {
	if l.cfg.UseExpectedRTT && l.th != nil {
		if v, ok := l.th.MiddleExpected(k, d); ok {
			return v
		}
	}
	return fallback
}

// naiveLocalize is the reference Algorithm 1: the paper's pseudocode over
// per-call maps, re-deriving each quartet's path and key wherever it needs
// them and reading thresholds by key string. It is what Localizer ran
// before routes were resolved once, carried dense key IDs and the working
// state became a pooled dense scratch; the differential tests below hold
// LocalizeRoutes to it.
func naiveLocalize(l *Localizer, qs []quartet.Quartet) []Result {
	clouds := make(map[netmodel.CloudID]*aggregate)
	middles := make(map[netmodel.MiddleKey]*aggregate)
	goodClouds := make(map[netmodel.PrefixID][]netmodel.CloudID) // clouds each prefix reached with good RTT
	for _, q := range qs {
		if !q.Enough {
			continue
		}
		o := q.Obs
		ca := clouds[o.Cloud]
		if ca == nil {
			ca = &aggregate{}
			clouds[o.Cloud] = ca
		}
		ca.add(o.MeanRTT >= l.expectedCloud(o.Cloud, o.Device, q.Target), o.Samples)
		mk := naiveKey(l, l.pathOf(o.Prefix, o.Cloud, o.Bucket), o.Prefix)
		ma := middles[mk]
		if ma == nil {
			ma = &aggregate{}
			middles[mk] = ma
		}
		ma.add(o.MeanRTT >= naiveExpectedMiddle(l, mk, o.Device, q.Target), o.Samples)
		if !q.Bad {
			goodClouds[o.Prefix] = append(goodClouds[o.Prefix], o.Cloud)
		}
	}
	var results []Result
	for _, q := range qs {
		if !q.Enough || !q.Bad {
			continue
		}
		o := q.Obs
		path := l.pathOf(o.Prefix, o.Cloud, o.Bucket)
		res := Result{Q: q, Path: path}
		mk := naiveKey(l, path, o.Prefix)
		goodElsewhere := false
		for _, c := range goodClouds[o.Prefix] {
			if c != o.Cloud {
				goodElsewhere = true
			}
		}
		switch {
		case clouds[o.Cloud].n < l.cfg.MinAggregate:
			res.Blame = BlameInsufficient
		case clouds[o.Cloud].badFraction(l.cfg.WeightBySamples) >= l.cfg.Tau:
			res.Blame = BlameCloud
			res.BlamedAS = l.cloudAS
		case middles[mk].n < l.cfg.MinAggregate:
			res.Blame = BlameInsufficient
		case middles[mk].badFraction(l.cfg.WeightBySamples) >= l.cfg.Tau:
			res.Blame = BlameMiddle
		case goodElsewhere:
			res.Blame = BlameAmbiguous
		default:
			res.Blame = BlameClient
			res.BlamedAS = path.Client
		}
		results = append(results, res)
	}
	return results
}

// randomWindow draws one bucket's quartets and the routes behind them,
// built group by group so the decision boundaries are hit on purpose and
// not by luck: (cloud, middle) groups one short of, exactly at and past
// MinAggregate, bad counts one short of, exactly at and past τ, prefixes
// seen at one, two and three clouds and sometimes twice at one (the
// ambiguity check), under-sampled rows in between, and sample counts that
// make the weighted and unweighted fractions disagree.
func randomWindow(r *rand.Rand, cfg Config) ([]quartet.Quartet, map[pcKey]netmodel.Path) {
	paths := make(map[pcKey]netmodel.Path)
	var qs []quartet.Quartet
	nClouds := 1 + r.Intn(3)
	prefixPool := 5 + r.Intn(40)
	m := cfg.MinAggregate
	for c := 0; c < nClouds; c++ {
		for g, groups := 0, 1+r.Intn(4); g < groups; g++ {
			middle := netmodel.ASN(2000 + r.Intn(6)) // few enough that groups share a middle
			size := []int{m - 1, m, m + 1, 2 * m, 4 * m}[r.Intn(5)]
			atTau := int(cfg.Tau * float64(size))
			bad := []int{0, atTau - 1, atTau, atTau + 1, size}[r.Intn(5)]
			for i := 0; i < size; i++ {
				p := r.Intn(prefixPool)
				k := pcKey{netmodel.PrefixID(p), netmodel.CloudID(c)}
				// The pipeline's quarantine leaves one quartet per (prefix,
				// cloud) in a bucket, but Algorithm 1 does not depend on it:
				// now and then a pair repeats, on the route it already has.
				if _, dup := paths[k]; !dup {
					paths[k] = simplePath(c, middle, netmodel.ASN(100+p%7))
				} else if r.Intn(4) != 0 {
					continue
				}
				rtt := 20 + 20*r.Float64()
				if i < bad {
					rtt = 60 + 40*r.Float64()
				}
				samples := quartet.MinSamples + r.Intn(200)
				if r.Intn(6) == 0 {
					samples = r.Intn(quartet.MinSamples) // fails the sample gate
				}
				q := mkQuartet(p, c, rtt, 50, samples)
				q.Obs.Device = netmodel.DeviceClass(r.Intn(netmodel.NumDeviceClasses))
				qs = append(qs, q)
			}
		}
	}
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs, paths
}

// randomLocalizer draws a configuration: learned thresholds for some of
// the clouds and middles and the static target for the rest, sample
// weighting on or off, and now and then a grouping coarser than the path.
func randomLocalizer(r *rand.Rand, paths map[pcKey]netmodel.Path) *Localizer {
	cfg := DefaultConfig()
	cfg.WeightBySamples = r.Intn(2) == 0
	cfg.UseExpectedRTT = r.Intn(4) != 0
	cloudTh := make(map[netmodel.CloudID]float64)
	middleTh := make(map[netmodel.MiddleKey]float64)
	for c := 0; c < 3; c++ {
		if r.Intn(2) == 0 {
			cloudTh[netmodel.CloudID(c)] = 30 + 40*r.Float64()
		}
		for middle := netmodel.ASN(2000); middle < 2006; middle++ {
			if r.Intn(2) == 0 {
				middleTh[simplePath(c, middle, 0).Key()] = 30 + 40*r.Float64()
			}
		}
	}
	l := NewLocalizer(cfg, cloudASN, pathFunc(paths), staticTh(cloudTh, middleTh))
	if r.Intn(3) == 0 {
		l.SetMiddleKeyFunc(func(path netmodel.Path, p netmodel.PrefixID) netmodel.MiddleKey {
			return netmodel.MiddleKey(fmt.Sprintf("c%d/as%d/m%d", path.Cloud, path.Client, p%3))
		})
	}
	return l
}

// TestLocalizeMatchesNaiveReference is the differential oracle: over
// seeded random windows the localizer must return exactly the reference's
// results, in its order, and move the verdict counters by exactly the
// reference's counts.
func TestLocalizeMatchesNaiveReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	seen := make(map[Blame]int)
	for trial := 0; trial < 2000; trial++ {
		qs, paths := randomWindow(r, DefaultConfig())
		l := randomLocalizer(r, paths)
		reg := metrics.NewRegistry()
		l.SetMetrics(reg)
		want := naiveLocalize(l, qs)
		got := l.Localize(qs)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d: result %d of %d differs from the reference (got %d results)\nwant %+v", trial, i, len(want), len(got), want[i])
				}
			}
			t.Fatalf("trial %d: %d results, reference has %d", trial, len(got), len(want))
		}
		wantCounts := Summarize(want)
		for b := Blame(0); b < numBlames; b++ {
			if n := reg.Counter("core.verdicts." + b.String()).Value(); n != int64(wantCounts[b]) {
				t.Fatalf("trial %d: core.verdicts.%v moved by %d, reference counts %d", trial, b, n, wantCounts[b])
			}
			seen[b] += wantCounts[b]
		}
		enough := 0
		for _, q := range qs {
			if q.Enough {
				enough++
			}
		}
		if n := reg.Counter("core.quartets.localized").Value(); n != int64(enough) {
			t.Fatalf("trial %d: core.quartets.localized moved by %d, window has %d sampled quartets", trial, n, enough)
		}
	}
	// The generator is only an oracle if every branch of Algorithm 1 fires.
	for _, b := range Categories() {
		if seen[b] == 0 {
			t.Errorf("no random window produced a %v verdict", b)
		}
	}
}

// TestLocalizeConcurrentCalls shares one Localizer — and so the scratch
// pool behind it — between many goroutines localizing different windows at
// once; every call must still match the reference. Run under -race.
func TestLocalizeConcurrentCalls(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	// One route table and localizer, many windows over it.
	all := make(map[pcKey]netmodel.Path)
	for p := 0; p < 60; p++ {
		for c := 0; c < 3; c++ {
			all[pcKey{netmodel.PrefixID(p), netmodel.CloudID(c)}] = simplePath(c, netmodel.ASN(2000+(p+c)%5), netmodel.ASN(100+p%7))
		}
	}
	l := randomLocalizer(r, all)
	l.SetMetrics(metrics.NewRegistry())
	const windows = 32
	qss := make([][]quartet.Quartet, windows)
	want := make([][]Result, windows)
	for w := range qss {
		for p := 0; p < 60; p++ {
			for c := 0; c < 3; c++ {
				if r.Intn(3) == 0 {
					continue
				}
				rtt := 20 + 20*r.Float64()
				if r.Intn(3) == 0 {
					rtt = 60 + 40*r.Float64()
				}
				qss[w] = append(qss[w], mkQuartet(p, c, rtt, 50, r.Intn(60)))
			}
		}
		want[w] = naiveLocalize(l, qss[w])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				w := (g + round*5) % windows
				if got := l.Localize(qss[w]); !reflect.DeepEqual(got, want[w]) && len(got)+len(want[w]) > 0 {
					t.Errorf("goroutine %d round %d: window %d differs from the reference", g, round, w)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
