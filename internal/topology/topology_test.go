package topology

import (
	"reflect"
	"testing"

	"blameit/internal/netmodel"
)

func small() *World { return Generate(SmallScale(), 42) }

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(SmallScale(), 42)
	w2 := Generate(SmallScale(), 42)
	if len(w1.Prefixes) != len(w2.Prefixes) || len(w1.BGPPrefixes) != len(w2.BGPPrefixes) {
		t.Fatal("same seed produced different entity counts")
	}
	for i := range w1.Prefixes {
		if w1.Prefixes[i] != w2.Prefixes[i] {
			t.Fatalf("prefix %d differs between identically seeded worlds", i)
		}
	}
	for _, c := range w1.Clouds {
		for _, bp := range w1.BGPPrefixes {
			if !w1.InitialPath(c.ID, bp.ID).Equal(w2.InitialPath(c.ID, bp.ID)) {
				t.Fatal("routes differ between identically seeded worlds")
			}
		}
	}
}

// TestGenerateDeterministicAcrossProviders: the whole world, compared
// field by field, is a pure function of (scale, seed). The name predates
// the single cloud; it now runs over several seeds instead of provider
// counts.
func TestGenerateDeterministicAcrossProviders(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		a := Generate(SmallScale(), seed)
		b := Generate(SmallScale(), seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed=%d: two Generate runs with the same seed differ", seed)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	w1 := Generate(SmallScale(), 1)
	w2 := Generate(SmallScale(), 2)
	same := true
	for id, ms := range w1.CloudBaseMS {
		if w2.CloudBaseMS[id] != ms {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical cloud latencies")
	}
}

func TestEntityCounts(t *testing.T) {
	w := small()
	sc := SmallScale()
	if got := len(w.Clouds); got != sc.CloudsPerRegion*netmodel.NumRegions {
		t.Errorf("clouds = %d", got)
	}
	if got := len(w.Metros); got != sc.MetrosPerRegion*netmodel.NumRegions {
		t.Errorf("metros = %d", got)
	}
	wantEyeballs := sc.EyeballsPerRegion * netmodel.NumRegions
	st := w.Stats()
	if st.EyeballASes != wantEyeballs {
		t.Errorf("eyeballs = %d, want %d", st.EyeballASes, wantEyeballs)
	}
	if st.BGPPrefixes < wantEyeballs*sc.MinBGPPerAS || st.BGPPrefixes > wantEyeballs*sc.MaxBGPPerAS {
		t.Errorf("BGP prefixes = %d out of range", st.BGPPrefixes)
	}
	if st.Prefix24s < st.BGPPrefixes {
		t.Errorf("fewer /24s (%d) than BGP prefixes (%d)", st.Prefix24s, st.BGPPrefixes)
	}
	if st.Clients <= 0 {
		t.Error("no clients generated")
	}
}

func TestBGPPrefixesCoverTheir24s(t *testing.T) {
	w := small()
	for _, bp := range w.BGPPrefixes {
		kids := w.PrefixesOfBGP(bp.ID)
		want := 1 << (24 - bp.MaskLen)
		if len(kids) != want {
			t.Fatalf("BGP prefix %d (/%d) covers %d /24s, want %d", bp.ID, bp.MaskLen, len(kids), want)
		}
		for _, pid := range kids {
			p := w.Prefixes[pid]
			if p.BGPPrefix != bp.ID {
				t.Fatal("child prefix points at the wrong BGP prefix")
			}
			if p.AS != bp.AS {
				t.Fatal("child prefix AS differs from announcing AS")
			}
			sz := uint32(1) << (32 - bp.MaskLen)
			if p.Base < bp.Base || p.Base >= bp.Base+sz {
				t.Fatalf("/24 %08x outside its BGP prefix %08x/%d", p.Base, bp.Base, bp.MaskLen)
			}
		}
	}
}

func TestBGPPrefixesDisjoint(t *testing.T) {
	w := small()
	seen := make(map[uint32]netmodel.BGPPrefixID)
	for _, p := range w.Prefixes {
		if prev, ok := seen[p.Base]; ok {
			t.Fatalf("/24 base %08x allocated to both BGP prefix %d and %d", p.Base, prev, p.BGPPrefix)
		}
		seen[p.Base] = p.BGPPrefix
	}
}

func TestRoutesExistForAllPairs(t *testing.T) {
	w := small()
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			p := w.InitialPath(c.ID, bp.ID)
			if p.Cloud != c.ID || p.Client != bp.AS {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			if len(p.Middle) == 0 {
				t.Fatalf("path %v has empty middle", p)
			}
			for _, a := range p.Middle {
				typ := w.ASes[a].Type
				if typ != netmodel.ASTransit && typ != netmodel.ASTier1 {
					t.Fatalf("middle AS %d is %v", a, typ)
				}
			}
		}
	}
}

func TestCrossRegionPathsUseTier1(t *testing.T) {
	w := small()
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			clientReg := w.ASes[bp.AS].Region
			if c.Region == clientReg {
				continue
			}
			p := w.InitialPath(c.ID, bp.ID)
			hasTier1 := false
			for _, a := range p.Middle {
				if w.ASes[a].Type == netmodel.ASTier1 {
					hasTier1 = true
				}
			}
			if !hasTier1 {
				t.Fatalf("cross-region path %v has no tier-1", p)
			}
		}
	}
}

func TestAltPathsDifferFromPrimary(t *testing.T) {
	w := small()
	anyAlt := false
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			primary := w.InitialPath(c.ID, bp.ID)
			for _, alt := range w.AltPaths(c.ID, bp.ID) {
				anyAlt = true
				if alt.Equal(primary) {
					t.Fatal("alternate path equals primary")
				}
				if alt.Cloud != c.ID || alt.Client != bp.AS {
					t.Fatal("alternate path endpoints wrong")
				}
			}
		}
	}
	if !anyAlt {
		t.Error("no alternate paths generated anywhere")
	}
}

func TestASLevelPathDiversityWithinAS(t *testing.T) {
	// The paper reports only ~47% of <AS,Metro> pairs see one consistent
	// path; our generator must produce path diversity across the BGP
	// prefixes of at least some ASes.
	w := small()
	diverse := 0
	total := 0
	for asn, pids := range map[netmodel.ASN][]netmodel.PrefixID(nil) {
		_ = asn
		_ = pids
	}
	for _, reg := range netmodel.AllRegions() {
		for _, asn := range w.Eyeballs[reg] {
			c := w.Clouds[0]
			keys := make(map[string]bool)
			for _, bp := range w.BGPPrefixes {
				if bp.AS != asn {
					continue
				}
				keys[string(w.InitialPath(c.ID, bp.ID).Key())] = true
			}
			total++
			if len(keys) > 1 {
				diverse++
			}
		}
	}
	if total == 0 {
		t.Fatal("no ASes inspected")
	}
	if diverse == 0 {
		t.Error("every AS has a single consistent path; expected diversity")
	}
}

func TestAttachmentsValid(t *testing.T) {
	w := small()
	secondaries := 0
	for _, p := range w.Prefixes {
		att := w.Attachments(p.ID)
		if len(att) == 0 {
			t.Fatal("prefix with no cloud attachment")
		}
		var sum float64
		for _, a := range att {
			sum += a.Weight
			if a.Weight <= 0 {
				t.Fatal("non-positive attachment weight")
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("attachment weights sum to %v", sum)
		}
		// Primary attachment must be in the prefix's own region.
		primReg := w.Clouds[att[0].Cloud].Region
		if primReg != w.PrefixRegion(p.ID) {
			t.Fatal("primary cloud not in client region")
		}
		if len(att) > 1 {
			secondaries++
		}
	}
	if secondaries == 0 {
		t.Error("no prefix has a secondary attachment")
	}
}

func TestBaseContributionsStructure(t *testing.T) {
	w := small()
	p := w.Prefixes[0]
	att := w.Attachments(p.ID)[0]
	path := w.InitialPath(att.Cloud, p.BGPPrefix)
	contribs := w.BaseContributions(path, p.ID)
	if len(contribs) != len(path.Middle)+2 {
		t.Fatalf("contribution count = %d", len(contribs))
	}
	if contribs[0].Segment != netmodel.SegCloud || contribs[0].AS != w.CloudASN() {
		t.Error("first contribution must be the cloud segment")
	}
	last := contribs[len(contribs)-1]
	if last.Segment != netmodel.SegClient || last.AS != p.AS {
		t.Error("last contribution must be the client segment")
	}
	var sum float64
	for _, c := range contribs {
		if c.MS <= 0 {
			t.Errorf("non-positive contribution %v", c)
		}
		sum += c.MS
	}
	if got := w.BasePathRTT(path, p.ID); got != sum {
		t.Errorf("BasePathRTT = %v, want %v", got, sum)
	}
}

func TestCrossRegionRTTHigherThanIntra(t *testing.T) {
	w := small()
	var intra, cross []float64
	for _, p := range w.Prefixes {
		reg := w.PrefixRegion(p.ID)
		for _, c := range w.Clouds {
			rtt := w.BasePathRTT(w.InitialPath(c.ID, p.BGPPrefix), p.ID)
			if c.Region == reg {
				intra = append(intra, rtt)
			} else {
				cross = append(cross, rtt)
			}
		}
	}
	meanOf := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if meanOf(cross) < meanOf(intra)*1.5 {
		t.Errorf("cross-region RTT (%.1f) not clearly above intra-region (%.1f)", meanOf(cross), meanOf(intra))
	}
}

func TestTargetsAboveTypicalRTT(t *testing.T) {
	w := small()
	for _, p := range w.Prefixes {
		att := w.Attachments(p.ID)[0]
		base := w.BasePathRTT(w.InitialPath(att.Cloud, p.BGPPrefix), p.ID)
		target := w.TargetForPrefix(p.ID)
		if target <= 0 {
			t.Fatal("non-positive target")
		}
		// Most prefixes should sit below their badness target in the
		// fault-free base state; allow the aggressive-target tail.
		_ = base
	}
	// Mobile targets must not be tighter than non-mobile in any region.
	for _, reg := range netmodel.AllRegions() {
		if w.Target(reg, netmodel.Mobile) < w.Target(reg, netmodel.NonMobile)*0.8 {
			t.Errorf("%v mobile target far below non-mobile", reg)
		}
	}
}

func TestMostPrefixesGoodAtBase(t *testing.T) {
	w := small()
	good := 0
	for _, p := range w.Prefixes {
		att := w.Attachments(p.ID)[0]
		base := w.BasePathRTT(w.InitialPath(att.Cloud, p.BGPPrefix), p.ID)
		if base < w.TargetForPrefix(p.ID) {
			good++
		}
	}
	frac := float64(good) / float64(len(w.Prefixes))
	if frac < 0.70 {
		t.Errorf("only %.0f%% of prefixes below target at base latency", frac*100)
	}
}

func TestAtomKeyGroupsConsistently(t *testing.T) {
	w := small()
	// Two BGP prefixes with the same atom key must share every per-cloud
	// path's middle sequence.
	atoms := make(map[string][]netmodel.BGPPrefixID)
	for _, bp := range w.BGPPrefixes {
		atoms[w.AtomKey(bp.ID)] = append(atoms[w.AtomKey(bp.ID)], bp.ID)
	}
	if len(atoms) >= len(w.BGPPrefixes) {
		t.Log("every BGP prefix is its own atom (no aggregation); acceptable but unusual")
	}
	for _, members := range atoms {
		if len(members) < 2 {
			continue
		}
		for _, c := range w.Clouds {
			first := w.InitialPath(c.ID, members[0]).Key()
			for _, bp := range members[1:] {
				if w.InitialPath(c.ID, bp).Key() != first {
					t.Fatal("atom members disagree on a path")
				}
			}
		}
	}
}

func TestMetrosAndCloudsRegionConsistent(t *testing.T) {
	w := small()
	for _, c := range w.Clouds {
		if w.Metros[c.Metro].Region != c.Region {
			t.Errorf("cloud %s region mismatch with metro", c.Name)
		}
	}
	for _, reg := range netmodel.AllRegions() {
		for _, id := range w.CloudsInRegion(reg) {
			if w.Clouds[id].Region != reg {
				t.Error("CloudsInRegion returned a foreign cloud")
			}
		}
	}
}

func TestMediumScaleGenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("medium world in -short mode")
	}
	w := Generate(MediumScale(), 7)
	st := w.Stats()
	if st.Prefix24s < 2000 {
		t.Errorf("medium world too small: %d /24s", st.Prefix24s)
	}
	if st.Clouds != 21 {
		t.Errorf("medium world clouds = %d", st.Clouds)
	}
}

func TestWiFiDeviceClass(t *testing.T) {
	w := small()
	counts := make(map[netmodel.DeviceClass]int)
	for _, p := range w.Prefixes {
		counts[p.Device]++
	}
	if counts[netmodel.WiFi] == 0 || counts[netmodel.NonMobile] == 0 || counts[netmodel.Mobile] == 0 {
		t.Fatalf("device mix missing a class: %v", counts)
	}
	// Cellular ASes carry only Mobile prefixes; broadband ASes never do.
	cellular := make(map[netmodel.ASN]bool)
	for _, p := range w.Prefixes {
		mobile := p.Device == netmodel.Mobile
		if seen, ok := cellular[p.AS]; ok && seen != mobile {
			t.Fatal("mixed cellular/broadband prefixes within one AS")
		}
		cellular[p.AS] = mobile
	}
	// Target looseness must follow access technology per region.
	for _, reg := range netmodel.AllRegions() {
		nm := w.Target(reg, netmodel.NonMobile)
		wf := w.Target(reg, netmodel.WiFi)
		mo := w.Target(reg, netmodel.Mobile)
		if !(nm <= wf && wf <= mo) {
			t.Errorf("%v target ordering broken: wired=%.1f wifi=%.1f mobile=%.1f", reg, nm, wf, mo)
		}
	}
}
