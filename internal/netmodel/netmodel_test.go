package netmodel

import (
	"testing"
	"testing/quick"
)

func TestRegionString(t *testing.T) {
	cases := []struct {
		r    Region
		want string
	}{
		{RegionUSA, "USA"},
		{RegionEurope, "Europe"},
		{RegionChina, "China"},
		{RegionIndia, "India"},
		{RegionBrazil, "Brazil"},
		{RegionAustralia, "Australia"},
		{RegionEastAsia, "EastAsia"},
		{Region(99), "Region(99)"},
		{Region(-1), "Region(-1)"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Region(%d).String() = %q, want %q", int(c.r), got, c.want)
		}
	}
}

func TestAllRegionsCount(t *testing.T) {
	if len(AllRegions()) != NumRegions {
		t.Fatalf("AllRegions() has %d entries, want %d", len(AllRegions()), NumRegions)
	}
}

func TestDeviceClassString(t *testing.T) {
	if NonMobile.String() != "non-mobile" || Mobile.String() != "mobile" {
		t.Error("device class names wrong")
	}
	if DeviceClass(7).String() != "DeviceClass(7)" {
		t.Error("unknown device class formatting wrong")
	}
}

func TestASTypeString(t *testing.T) {
	cases := map[ASType]string{
		ASCloud: "cloud", ASTier1: "tier1", ASTransit: "transit", ASEyeball: "eyeball",
	}
	for typ, want := range cases {
		if typ.String() != want {
			t.Errorf("%v != %s", typ, want)
		}
	}
	if ASType(9).String() != "ASType(9)" {
		t.Error("unknown AS type formatting wrong")
	}
}

func TestSegmentString(t *testing.T) {
	if SegCloud.String() != "cloud" || SegMiddle.String() != "middle" || SegClient.String() != "client" {
		t.Error("segment names wrong")
	}
	if Segment(5).String() != "Segment(5)" {
		t.Error("unknown segment formatting wrong")
	}
}

func TestPathKeyDistinguishesClouds(t *testing.T) {
	p1 := Path{Cloud: 1, Middle: []ASN{10, 20}, Client: 30}
	p2 := Path{Cloud: 2, Middle: []ASN{10, 20}, Client: 30}
	if p1.Key() == p2.Key() {
		t.Error("paths through different clouds must have different middle keys")
	}
}

func TestPathKeyDistinguishesOrder(t *testing.T) {
	p1 := Path{Cloud: 1, Middle: []ASN{10, 20}, Client: 30}
	p2 := Path{Cloud: 1, Middle: []ASN{20, 10}, Client: 30}
	if p1.Key() == p2.Key() {
		t.Error("middle key must be order sensitive")
	}
}

func TestPathKeyNoAmbiguousConcatenation(t *testing.T) {
	// AS 1 followed by AS 12 must not collide with AS 11 followed by AS 2.
	p1 := Path{Cloud: 1, Middle: []ASN{1, 12}, Client: 30}
	p2 := Path{Cloud: 1, Middle: []ASN{11, 2}, Client: 30}
	if p1.Key() == p2.Key() {
		t.Error("middle key concatenation is ambiguous")
	}
	// A cloud id ending in a digit must not bleed into the first ASN.
	p3 := Path{Cloud: 11, Middle: []ASN{2}, Client: 30}
	p4 := Path{Cloud: 1, Middle: []ASN{12}, Client: 30}
	if p3.Key() == p4.Key() {
		t.Error("cloud id concatenation is ambiguous")
	}
}

func TestPathFullKeyIncludesClient(t *testing.T) {
	p1 := Path{Cloud: 1, Middle: []ASN{10}, Client: 30}
	p2 := Path{Cloud: 1, Middle: []ASN{10}, Client: 31}
	if p1.Key() != p2.Key() {
		t.Error("middle key must not include client")
	}
	if p1.FullKey() == p2.FullKey() {
		t.Error("full key must include client")
	}
}

func TestPathEqual(t *testing.T) {
	p := Path{Cloud: 3, Middle: []ASN{5, 6}, Client: 9}
	if !p.Equal(p.Clone()) {
		t.Error("clone must equal original")
	}
	q := p.Clone()
	q.Middle[0] = 7
	if p.Equal(q) {
		t.Error("different middles must not be equal")
	}
	if p.Middle[0] != 5 {
		t.Error("Clone must deep-copy Middle")
	}
	if p.Equal(Path{Cloud: 3, Middle: []ASN{5}, Client: 9}) {
		t.Error("different middle lengths must not be equal")
	}
}

func TestPathKeyEqualConsistency(t *testing.T) {
	// Property: Equal(p, q) iff FullKey(p) == FullKey(q).
	f := func(cloud1, cloud2 uint8, m1, m2 []uint16, cl1, cl2 uint16) bool {
		toPath := func(c uint8, m []uint16, cl uint16) Path {
			mid := make([]ASN, len(m))
			for i, v := range m {
				mid[i] = ASN(v)
			}
			return Path{Cloud: CloudID(c), Middle: mid, Client: ASN(cl)}
		}
		p, q := toPath(cloud1, m1, cl1), toPath(cloud2, m2, cl2)
		return p.Equal(q) == (p.FullKey() == q.FullKey())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBucketArithmetic(t *testing.T) {
	if BucketsPerDay != 288 {
		t.Fatalf("BucketsPerDay = %d, want 288", BucketsPerDay)
	}
	b := Bucket(BucketsPerDay + 13) // day 1, 13th bucket
	if b.Day() != 1 {
		t.Errorf("Day() = %d, want 1", b.Day())
	}
	if b.HourOfDay() != 1 {
		t.Errorf("HourOfDay() = %d, want 1", b.HourOfDay())
	}
	if b.OfDay() != 13 {
		t.Errorf("OfDay() = %d, want 13", b.OfDay())
	}
	if Bucket(3).Minutes() != 15 {
		t.Errorf("Minutes() = %d, want 15", Bucket(3).Minutes())
	}
}

func TestBucketWeekend(t *testing.T) {
	// Day 0 is Monday; days 5 and 6 are the weekend.
	for day := 0; day < 14; day++ {
		b := Bucket(day * BucketsPerDay)
		want := day%7 == 5 || day%7 == 6
		if b.IsWeekend() != want {
			t.Errorf("day %d IsWeekend = %v, want %v", day, b.IsWeekend(), want)
		}
	}
}

func TestBucketHourProperty(t *testing.T) {
	f := func(n uint16) bool {
		b := Bucket(n)
		return b.HourOfDay() >= 0 && b.HourOfDay() < 24 &&
			b.OfDay() >= 0 && b.OfDay() < BucketsPerDay &&
			b.Day()*BucketsPerDay+b.OfDay() == int(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
