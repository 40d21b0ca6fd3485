// Package netmodel defines the core entity types shared by every subsystem
// of the BlameIt reproduction: autonomous systems, regions, metros, cloud
// edge locations, client prefixes, BGP prefixes, and AS-level paths.
//
// The types deliberately mirror the vocabulary of the paper ("Zooming in on
// Wide-area Latencies to a Global Cloud Provider", SIGCOMM 2019): a client
// /24 connects to a cloud location over a path that is segmented into a
// cloud segment (the cloud AS), a middle segment (the ordered set of transit
// ASes, called the "BGP path"), and a client segment (the client AS).
package netmodel

import (
	"fmt"
	"strconv"
	"strings"
)

// Region identifies a coarse geographic cloud region. The evaluation in the
// paper slices results by region (Fig. 2, Fig. 9), so regions are first-class
// here.
type Region int

// Regions used throughout the synthetic world. The set matches the regions
// named in the paper's figures (USA, Europe, China, India, Brazil,
// Australia) plus East Asia, which appears in the §6.3 traffic-shift case
// study.
const (
	RegionUSA Region = iota
	RegionEurope
	RegionChina
	RegionIndia
	RegionBrazil
	RegionAustralia
	RegionEastAsia
	numRegions
)

// NumRegions is the count of defined regions.
const NumRegions = int(numRegions)

var regionNames = [...]string{
	RegionUSA:       "USA",
	RegionEurope:    "Europe",
	RegionChina:     "China",
	RegionIndia:     "India",
	RegionBrazil:    "Brazil",
	RegionAustralia: "Australia",
	RegionEastAsia:  "EastAsia",
}

// String returns the human-readable region name.
func (r Region) String() string {
	if r < 0 || int(r) >= len(regionNames) {
		return fmt.Sprintf("Region(%d)", int(r))
	}
	return regionNames[r]
}

// AllRegions returns every defined region in declaration order.
func AllRegions() []Region {
	out := make([]Region, NumRegions)
	for i := range out {
		out[i] = Region(i)
	}
	return out
}

// DeviceClass distinguishes mobile (cellular) clients from non-mobile
// (broadband) clients. The paper's quartet definition and badness thresholds
// both key on this distinction.
type DeviceClass int

const (
	// NonMobile clients connect over wired broadband networks.
	NonMobile DeviceClass = iota
	// Mobile clients connect over cellular networks and carry looser RTT
	// targets.
	Mobile
	// WiFi clients sit behind home wireless on a broadband uplink — the
	// distinction the paper planned to add ("Going forward, we plan to
	// distinguish Wi-Fi connections as well", §2.1). Their targets sit
	// between wired broadband and cellular.
	WiFi
	numDeviceClasses
)

// NumDeviceClasses is the count of defined device classes.
const NumDeviceClasses = int(numDeviceClasses)

// String names the device class.
func (d DeviceClass) String() string {
	switch d {
	case NonMobile:
		return "non-mobile"
	case Mobile:
		return "mobile"
	case WiFi:
		return "wifi"
	default:
		return fmt.Sprintf("DeviceClass(%d)", int(d))
	}
}

// ASN is an autonomous-system number.
type ASN int

// ASType classifies an AS by its role in the synthetic topology.
type ASType int

const (
	// ASCloud is the cloud provider's own network (the "cloud segment").
	ASCloud ASType = iota
	// ASTier1 is a global backbone AS present in every region.
	ASTier1
	// ASTransit is a regional transit AS (part of "middle segments").
	ASTransit
	// ASEyeball is a client-facing ISP (the "client segment").
	ASEyeball
)

// String names the AS type.
func (t ASType) String() string {
	switch t {
	case ASCloud:
		return "cloud"
	case ASTier1:
		return "tier1"
	case ASTransit:
		return "transit"
	case ASEyeball:
		return "eyeball"
	default:
		return fmt.Sprintf("ASType(%d)", int(t))
	}
}

// AS describes one autonomous system.
type AS struct {
	ASN    ASN
	Name   string
	Type   ASType
	Region Region // primary region; tier-1 ASes span all regions
}

// MetroID identifies a metropolitan area within a region.
type MetroID int

// Metro is a metropolitan area; client prefixes and cloud locations are
// anchored to metros.
type Metro struct {
	ID     MetroID
	Name   string
	Region Region
}

// CloudID identifies one cloud edge location.
type CloudID int

// CloudLocation is one of the cloud's network edge locations ("cloud
// locations" in the paper). Clients reach the nearest location via
// anycast.
type CloudLocation struct {
	ID     CloudID
	Name   string
	Metro  MetroID
	Region Region
}

// PrefixID indexes a client /24 prefix within a World.
type PrefixID int

// BGPPrefixID indexes a BGP-announced prefix within a World.
type BGPPrefixID int

// Prefix24 is a client IP /24 block, the spatial unit of the paper's
// "quartet" aggregation.
type Prefix24 struct {
	ID        PrefixID
	Base      uint32 // network byte order base address of the /24
	AS        ASN    // client (eyeball) AS announcing this block
	Metro     MetroID
	BGPPrefix BGPPrefixID // covering BGP-announced prefix
	// ActiveClients is the typical number of distinct active client IPs in
	// this /24 during a 5-minute window. The paper observes large BGP blocks
	// often have fewer active clients than small ones; the generator
	// reproduces that skew.
	ActiveClients int
	// Device is the dominant connectivity class of this block (cellular
	// blocks are marked Mobile).
	Device DeviceClass
}

// BGPPrefix is a BGP-announced aggregate covering one or more /24 blocks.
type BGPPrefix struct {
	ID      BGPPrefixID
	Base    uint32
	MaskLen int
	AS      ASN
	Metro   MetroID
}

// Path is an AS-level route from a cloud location to a client prefix. Cloud
// holds the edge location, Middle the ordered transit ASes between the cloud
// AS and the client AS ("BGP path" in the paper), and Client the eyeball AS.
type Path struct {
	Cloud  CloudID
	Middle []ASN
	Client ASN
}

// MiddleKey canonically encodes the middle segment of a path, scoped to its
// cloud location. Algorithm 1 aggregates quartets by this key when deciding
// middle-segment blame, and the active phase groups probe targets by it.
type MiddleKey string

// KeyID is the dense index of a MiddleKey within one KeySpace. The
// per-observation state (learned thresholds, client histories, baselines,
// Algorithm 1's middle aggregates) lives in slices indexed by it.
type KeyID int32

// KeySpace interns MiddleKeys into dense KeyIDs 0, 1, 2, … in the order
// they are first interned, so the IDs depend on that order alone. The BGP
// table's space is filled once when the table is built and only read
// after; a coarser middle grouping interns its keys into a space of its
// own. A nil *KeySpace is an empty space; a KeySpace must not be copied
// once used.
type KeySpace struct {
	ids  map[MiddleKey]KeyID
	keys []MiddleKey
	// arena backs the keys InternBytes copies in: a Builder only appends,
	// so the bytes under a key it handed out never change, and a table's
	// thousands of keys cost a handful of allocations rather than one each.
	arena strings.Builder
}

// keyArenaChunk is the size of one arena chunk, a few thousand keys.
const keyArenaChunk = 64 << 10

// Intern returns k's ID, assigning the next one when k is new.
func (s *KeySpace) Intern(k MiddleKey) KeyID {
	if id, ok := s.ids[k]; ok {
		return id
	}
	if s.ids == nil {
		s.ids = make(map[MiddleKey]KeyID)
	}
	id := KeyID(len(s.keys))
	s.ids[k] = id
	s.keys = append(s.keys, k)
	return id
}

// InternBytes is Intern for a key being formatted in a scratch buffer: a
// key already interned costs a lookup, a new one a copy into the arena.
func (s *KeySpace) InternBytes(b []byte) KeyID {
	if id, ok := s.ids[MiddleKey(b)]; ok {
		return id
	}
	if s.arena.Cap()-s.arena.Len() < len(b) {
		// A full chunk is left to the keys that point into it.
		s.arena = strings.Builder{}
		s.arena.Grow(max(keyArenaChunk, len(b)))
	}
	off := s.arena.Len()
	s.arena.Write(b)
	return s.Intern(MiddleKey(s.arena.String()[off:]))
}

// ID returns k's ID and whether k has been interned.
func (s *KeySpace) ID(k MiddleKey) (KeyID, bool) {
	if s == nil {
		return 0, false
	}
	id, ok := s.ids[k]
	return id, ok
}

// Key returns the key interned as id.
func (s *KeySpace) Key(id KeyID) MiddleKey { return s.keys[id] }

// Len returns the number of interned keys: every ID is in [0, Len).
func (s *KeySpace) Len() int {
	if s == nil {
		return 0
	}
	return len(s.keys)
}

// Key returns the MiddleKey for the path.
func (p Path) Key() MiddleKey {
	// One allocation, the key itself. The per-quartet paths carry the
	// KeyID the BGP table interned for the route instead.
	return MiddleKey(p.AppendKey(make([]byte, 0, 64)))
}

// AppendKey appends the bytes of the path's MiddleKey to buf.
func (p Path) AppendKey(buf []byte) []byte {
	buf = strconv.AppendInt(append(buf, 'c'), int64(p.Cloud), 10)
	for _, a := range p.Middle {
		buf = strconv.AppendInt(append(buf, '|'), int64(a), 10)
	}
	return buf
}

// FullKey encodes the complete AS-level path including the client AS. Two
// paths with equal FullKeys traverse identical AS sequences end to end.
func (p Path) FullKey() string {
	return string(p.Key()) + ">" + strconv.Itoa(int(p.Client))
}

// Equal reports whether two paths traverse the same cloud location, middle
// ASes (in order) and client AS.
func (p Path) Equal(q Path) bool {
	if p.Cloud != q.Cloud || p.Client != q.Client || len(p.Middle) != len(q.Middle) {
		return false
	}
	for i, a := range p.Middle {
		if a != q.Middle[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	c := p
	c.Middle = append([]ASN(nil), p.Middle...)
	return c
}

// String renders the path as "cloud:3 [64601 64602] -> AS64701".
func (p Path) String() string {
	parts := make([]string, len(p.Middle))
	for i, a := range p.Middle {
		parts[i] = strconv.Itoa(int(a))
	}
	return fmt.Sprintf("cloud:%d [%s] -> AS%d", int(p.Cloud), strings.Join(parts, " "), int(p.Client))
}

// Segment identifies which coarse network segment a blame or fault refers
// to: the cloud AS, one of the middle ASes, or the client AS.
type Segment int

const (
	// SegCloud is the cloud provider's network.
	SegCloud Segment = iota
	// SegMiddle is the set of transit ASes between cloud and client.
	SegMiddle
	// SegClient is the client's own ISP.
	SegClient
)

// String names the segment.
func (s Segment) String() string {
	switch s {
	case SegCloud:
		return "cloud"
	case SegMiddle:
		return "middle"
	case SegClient:
		return "client"
	default:
		return fmt.Sprintf("Segment(%d)", int(s))
	}
}

// Bucket is a simulated 5-minute time window index, counted from the start
// of the simulation. All temporal reasoning in the reproduction uses
// buckets; there is no wall-clock dependence.
type Bucket int

// BucketsPerHour is the number of 5-minute buckets in one hour.
const BucketsPerHour = 12

// BucketsPerDay is the number of 5-minute buckets in one day.
const BucketsPerDay = 24 * BucketsPerHour

// BucketMinutes is the length of a bucket in minutes.
const BucketMinutes = 5

// Day returns the zero-based simulated day of the bucket.
func (b Bucket) Day() int { return int(b) / BucketsPerDay }

// HourOfDay returns the zero-based hour-of-day of the bucket.
func (b Bucket) HourOfDay() int { return (int(b) % BucketsPerDay) / BucketsPerHour }

// OfDay returns the bucket index within its day, in [0, BucketsPerDay).
func (b Bucket) OfDay() int { return int(b) % BucketsPerDay }

// IsWeekend reports whether the bucket's simulated day falls on a weekend.
// Day 0 is a Monday, so days 5 and 6 of each week are weekend days.
func (b Bucket) IsWeekend() bool {
	d := b.Day() % 7
	return d == 5 || d == 6
}

// Minutes converts a bucket count into minutes.
func (b Bucket) Minutes() int { return int(b) * BucketMinutes }
