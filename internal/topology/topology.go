// Package topology generates the synthetic wide-area world that stands in
// for Azure's production environment: cloud edge locations across regions,
// a tier-1/transit/eyeball AS fabric, metros, BGP-announced prefixes and
// their /24 blocks, AS-level routes from every cloud location to every BGP
// prefix, and the static base-latency parameters of every network segment.
//
// Everything is generated deterministically from a seed so that every
// experiment in the reproduction is replayable bit-for-bit.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"blameit/internal/netmodel"
	"blameit/internal/parallel"
	"blameit/internal/stats"
)

// Scale controls the size of the generated world. The reproduction ships
// three presets (Small/Medium/Large); tests use Small, the experiment
// harness uses Medium or Large.
type Scale struct {
	CloudsPerRegion   int
	MetrosPerRegion   int
	Tier1Count        int
	TransitPerRegion  int
	EyeballsPerRegion int
	MinBGPPerAS       int // BGP prefixes announced per eyeball AS
	MaxBGPPerAS       int
	MaxMaskShorten    int // a BGP prefix is a /24../(24-MaxMaskShorten)
	CellularASShare   float64
	// WiFiShare is the fraction of non-cellular /24s whose clients are
	// predominantly behind home Wi-Fi (the §2.1 follow-up device class).
	WiFiShare           float64
	SecondaryCloudShare float64 // fraction of prefixes with a secondary cloud attachment
}

// Validate reports whether the scale is generatable: every count Generate
// divides or indexes by is positive and every share is a probability.
func (s Scale) Validate() error {
	bad01 := func(x float64) bool { return math.IsNaN(x) || x < 0 || x > 1 }
	switch {
	case s.CloudsPerRegion < 1:
		return fmt.Errorf("topology: CloudsPerRegion %d must be >= 1", s.CloudsPerRegion)
	case s.MetrosPerRegion < 1:
		return fmt.Errorf("topology: MetrosPerRegion %d must be >= 1", s.MetrosPerRegion)
	case s.Tier1Count < 1:
		return fmt.Errorf("topology: Tier1Count %d must be >= 1", s.Tier1Count)
	case s.TransitPerRegion < 1:
		return fmt.Errorf("topology: TransitPerRegion %d must be >= 1", s.TransitPerRegion)
	case s.EyeballsPerRegion < 1:
		return fmt.Errorf("topology: EyeballsPerRegion %d must be >= 1", s.EyeballsPerRegion)
	case s.MinBGPPerAS < 1:
		return fmt.Errorf("topology: MinBGPPerAS %d must be >= 1", s.MinBGPPerAS)
	case s.MaxBGPPerAS < s.MinBGPPerAS:
		return fmt.Errorf("topology: MaxBGPPerAS %d must be >= MinBGPPerAS %d", s.MaxBGPPerAS, s.MinBGPPerAS)
	case s.MaxMaskShorten < 0 || s.MaxMaskShorten > 8:
		return fmt.Errorf("topology: MaxMaskShorten %d must be in [0, 8]", s.MaxMaskShorten)
	case bad01(s.CellularASShare):
		return fmt.Errorf("topology: CellularASShare %v must be in [0, 1]", s.CellularASShare)
	case bad01(s.WiFiShare):
		return fmt.Errorf("topology: WiFiShare %v must be in [0, 1]", s.WiFiShare)
	case bad01(s.SecondaryCloudShare):
		return fmt.Errorf("topology: SecondaryCloudShare %v must be in [0, 1]", s.SecondaryCloudShare)
	}
	return nil
}

// ScaleByName resolves the -scale flag every command takes.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return SmallScale(), nil
	case "medium":
		return MediumScale(), nil
	case "large":
		return LargeScale(), nil
	default:
		return Scale{}, fmt.Errorf("unknown scale %q (small|medium|large)", name)
	}
}

// SmallScale is sized for unit tests: a few hundred /24s.
func SmallScale() Scale {
	return Scale{
		CloudsPerRegion:     2,
		MetrosPerRegion:     2,
		Tier1Count:          4,
		TransitPerRegion:    6,
		EyeballsPerRegion:   20,
		MinBGPPerAS:         3,
		MaxBGPPerAS:         4,
		MaxMaskShorten:      2,
		CellularASShare:     0.25,
		WiFiShare:           0.35,
		SecondaryCloudShare: 0.4,
	}
}

// MediumScale is sized for the experiment harness: a few thousand /24s.
func MediumScale() Scale {
	return Scale{
		CloudsPerRegion:     3,
		MetrosPerRegion:     4,
		Tier1Count:          6,
		TransitPerRegion:    8,
		EyeballsPerRegion:   22,
		MinBGPPerAS:         3,
		MaxBGPPerAS:         8,
		MaxMaskShorten:      3,
		CellularASShare:     0.25,
		WiFiShare:           0.35,
		SecondaryCloudShare: 0.4,
	}
}

// LargeScale is sized for stress benchmarks: tens of thousands of /24s.
func LargeScale() Scale {
	return Scale{
		CloudsPerRegion:     5,
		MetrosPerRegion:     6,
		Tier1Count:          8,
		TransitPerRegion:    10,
		EyeballsPerRegion:   60,
		MinBGPPerAS:         4,
		MaxBGPPerAS:         10,
		MaxMaskShorten:      3,
		CellularASShare:     0.25,
		WiFiShare:           0.35,
		SecondaryCloudShare: 0.4,
	}
}

// cloudASN is the cloud's own AS; it sits clear of the tier-1 (1000+),
// transit (2000–2699) and eyeball (10000+) ASN ranges.
const cloudASN netmodel.ASN = 8075

// CloudAttachment records that a prefix's clients connect to a cloud
// location with the given share of the prefix's traffic.
type CloudAttachment struct {
	Cloud  netmodel.CloudID
	Weight float64
}

// ASContribution is one AS's share of a path's base RTT, in milliseconds.
type ASContribution struct {
	AS      netmodel.ASN
	Segment netmodel.Segment
	MS      float64
}

// World is the generated environment: entities, routing, and static latency
// ground truth.
type World struct {
	Seed  int64
	Scale Scale

	ASes     map[netmodel.ASN]netmodel.AS
	Tier1s   []netmodel.ASN
	Transits map[netmodel.Region][]netmodel.ASN
	Eyeballs map[netmodel.Region][]netmodel.ASN

	Metros      []netmodel.Metro
	Clouds      []netmodel.CloudLocation
	BGPPrefixes []netmodel.BGPPrefix
	Prefixes    []netmodel.Prefix24

	// Derived lookups.
	prefixesByBGP map[netmodel.BGPPrefixID][]netmodel.PrefixID
	cloudsByReg   map[netmodel.Region][]netmodel.CloudID

	// Routing: per (cloud, BGP prefix) entry, indexed
	// cloud*len(BGPPrefixes)+bgp, the primary path followed by the
	// alternates.
	routes [][]netmodel.Path

	// Cloud attachments per client prefix.
	attachments [][]CloudAttachment

	// Static latency ground truth.
	CloudBaseMS  map[netmodel.CloudID]float64
	ASBaseMS     map[netmodel.ASN]float64
	PrefixBaseMS []float64 // indexed by PrefixID
	RegionPropMS [netmodel.NumRegions][netmodel.NumRegions]float64

	// Region- and device-specific RTT badness targets (§2.1).
	targets [netmodel.NumRegions][netmodel.NumDeviceClasses]float64
	// attachTargets[p][i] is TargetFor(p, attachments[p][i].Cloud), worked
	// out once: the pipeline asks for it per observation, and the base path
	// RTT behind it never changes.
	attachTargets [][]float64
}

var metroNames = map[netmodel.Region][]string{
	netmodel.RegionUSA:       {"NewYork", "Seattle", "Chicago", "Dallas", "LosAngeles", "Atlanta"},
	netmodel.RegionEurope:    {"London", "Amsterdam", "Frankfurt", "Paris", "Milan", "Madrid"},
	netmodel.RegionChina:     {"Beijing", "Shanghai", "Guangzhou", "Chengdu", "Wuhan", "Xian"},
	netmodel.RegionIndia:     {"Mumbai", "Delhi", "Chennai", "Bangalore", "Hyderabad", "Kolkata"},
	netmodel.RegionBrazil:    {"SaoPaulo", "Rio", "Brasilia", "Salvador", "Fortaleza", "Curitiba"},
	netmodel.RegionAustralia: {"Sydney", "Melbourne", "Brisbane", "Perth", "Adelaide", "Canberra"},
	netmodel.RegionEastAsia:  {"Tokyo", "Seoul", "Singapore", "HongKong", "Osaka", "Taipei"},
}

// Generate builds a world from a scale and seed. Every random draw comes
// from one stream seeded by seed, in a fixed order.
func Generate(scale Scale, seed int64) *World {
	r := rand.New(rand.NewSource(seed))
	w := &World{
		Seed:          seed,
		Scale:         scale,
		ASes:          make(map[netmodel.ASN]netmodel.AS),
		Transits:      make(map[netmodel.Region][]netmodel.ASN),
		Eyeballs:      make(map[netmodel.Region][]netmodel.ASN),
		prefixesByBGP: make(map[netmodel.BGPPrefixID][]netmodel.PrefixID),
		cloudsByReg:   make(map[netmodel.Region][]netmodel.CloudID),
		CloudBaseMS:   make(map[netmodel.CloudID]float64),
		ASBaseMS:      make(map[netmodel.ASN]float64),
	}
	w.ASes[cloudASN] = netmodel.AS{ASN: cloudASN, Name: "CloudNet", Type: netmodel.ASCloud, Region: netmodel.RegionUSA}

	w.generateFabric(r, scale)
	w.generateMetros(scale)
	w.generateClouds(scale)
	w.generateClients(r, scale)
	w.generateLatencyParams(r)
	w.generateRoutes()
	w.generateAttachments(r, scale)
	w.deriveTargets()
	return w
}

func (w *World) generateFabric(r *rand.Rand, scale Scale) {
	for i := 0; i < scale.Tier1Count; i++ {
		asn := netmodel.ASN(1000 + i)
		w.ASes[asn] = netmodel.AS{ASN: asn, Name: fmt.Sprintf("Tier1-%d", i+1), Type: netmodel.ASTier1, Region: netmodel.RegionUSA}
		w.Tier1s = append(w.Tier1s, asn)
	}
	for _, reg := range netmodel.AllRegions() {
		for i := 0; i < scale.TransitPerRegion; i++ {
			asn := netmodel.ASN(2000 + int(reg)*100 + i)
			w.ASes[asn] = netmodel.AS{ASN: asn, Name: fmt.Sprintf("%s-Transit-%d", reg, i+1), Type: netmodel.ASTransit, Region: reg}
			w.Transits[reg] = append(w.Transits[reg], asn)
		}
	}
}

func (w *World) generateMetros(scale Scale) {
	for _, reg := range netmodel.AllRegions() {
		names := metroNames[reg]
		for i := 0; i < scale.MetrosPerRegion; i++ {
			name := fmt.Sprintf("%s-Metro-%d", reg, i+1)
			if i < len(names) {
				name = names[i]
			}
			w.Metros = append(w.Metros, netmodel.Metro{
				ID:     netmodel.MetroID(len(w.Metros)),
				Name:   name,
				Region: reg,
			})
		}
	}
}

// generateClouds creates the cloud's edge locations, one pass per region,
// cycling through the region's metros. It draws no randomness: the base
// latencies come from generateLatencyParams.
func (w *World) generateClouds(scale Scale) {
	for _, reg := range netmodel.AllRegions() {
		metros := w.MetrosInRegion(reg)
		for i := 0; i < scale.CloudsPerRegion; i++ {
			m := metros[i%len(metros)]
			id := netmodel.CloudID(len(w.Clouds))
			w.Clouds = append(w.Clouds, netmodel.CloudLocation{
				ID:     id,
				Name:   "edge-" + m.Name,
				Metro:  m.ID,
				Region: reg,
			})
			w.cloudsByReg[reg] = append(w.cloudsByReg[reg], id)
		}
	}
}

func (w *World) generateClients(r *rand.Rand, scale Scale) {
	// Allocate address space deterministically: each BGP prefix gets a
	// distinct chunk of a region-specific /8-ish space.
	nextBlock := make(map[netmodel.Region]uint32)
	for _, reg := range netmodel.AllRegions() {
		nextBlock[reg] = uint32(10+int(reg)) << 24
	}
	for _, reg := range netmodel.AllRegions() {
		metros := w.MetrosInRegion(reg)
		for i := 0; i < scale.EyeballsPerRegion; i++ {
			asn := netmodel.ASN(10000 + int(reg)*1000 + i)
			cellular := r.Float64() < scale.CellularASShare
			typ := "ISP"
			if cellular {
				typ = "Mobile"
			}
			w.ASes[asn] = netmodel.AS{ASN: asn, Name: fmt.Sprintf("%s-%s-%d", reg, typ, i+1), Type: netmodel.ASEyeball, Region: reg}
			w.Eyeballs[reg] = append(w.Eyeballs[reg], asn)

			nBGP := scale.MinBGPPerAS + r.Intn(scale.MaxBGPPerAS-scale.MinBGPPerAS+1)
			for j := 0; j < nBGP; j++ {
				shorten := r.Intn(scale.MaxMaskShorten + 1)
				mask := 24 - shorten
				n24 := 1 << shorten
				metro := metros[r.Intn(len(metros))]
				bpID := netmodel.BGPPrefixID(len(w.BGPPrefixes))
				base := nextBlock[reg]
				// Advance by the block size, aligned to it.
				sz := uint32(1) << (32 - mask)
				if base%sz != 0 {
					base = (base/sz + 1) * sz
				}
				nextBlock[reg] = base + sz
				w.BGPPrefixes = append(w.BGPPrefixes, netmodel.BGPPrefix{
					ID: bpID, Base: base, MaskLen: mask, AS: asn, Metro: metro.ID,
				})
				for k := 0; k < n24; k++ {
					device := netmodel.NonMobile
					if cellular {
						device = netmodel.Mobile
					} else if r.Float64() < scale.WiFiShare {
						device = netmodel.WiFi
					}
					pid := netmodel.PrefixID(len(w.Prefixes))
					// The paper observes that larger announced blocks often
					// have fewer active clients per /24; shrink activity as
					// blocks grow. The floor keeps typical quartets at "many
					// tens" of RTT samples, as in the production dataset.
					activity := stats.BoundedPareto(r, 0.9, 10, 600) / float64(1+shorten)
					w.Prefixes = append(w.Prefixes, netmodel.Prefix24{
						ID:            pid,
						Base:          base + uint32(k)<<8,
						AS:            asn,
						Metro:         metro.ID,
						BGPPrefix:     bpID,
						ActiveClients: 6 + int(activity),
						Device:        device,
					})
					w.prefixesByBGP[bpID] = append(w.prefixesByBGP[bpID], pid)
				}
			}
		}
	}
}

func (w *World) generateLatencyParams(r *rand.Rand) {
	for _, c := range w.Clouds {
		w.CloudBaseMS[c.ID] = 1 + 4*r.Float64() // 1-5ms inside the cloud
	}
	for _, asn := range w.Tier1s {
		w.ASBaseMS[asn] = 6 + 10*r.Float64() // 6-16ms backbone hop
	}
	for _, reg := range netmodel.AllRegions() {
		for _, asn := range w.Transits[reg] {
			w.ASBaseMS[asn] = 2 + 8*r.Float64() // 2-10ms regional transit
		}
	}
	w.PrefixBaseMS = make([]float64, len(w.Prefixes))
	for i, p := range w.Prefixes {
		base := 4 + 26*r.Float64() // 4-30ms last mile
		switch p.Device {
		case netmodel.Mobile:
			base += 12 + 25*r.Float64() // cellular access penalty
		case netmodel.WiFi:
			base += 3 + 8*r.Float64() // home-wireless penalty
		}
		w.PrefixBaseMS[i] = base
	}
	// Inter-region propagation, symmetric. Intra-region is small.
	for i := 0; i < netmodel.NumRegions; i++ {
		for j := i; j < netmodel.NumRegions; j++ {
			var ms float64
			if i == j {
				ms = 1 + 5*r.Float64()
			} else {
				ms = 60 + 110*r.Float64() // 60-170ms intercontinental
			}
			w.RegionPropMS[i][j] = ms
			w.RegionPropMS[j][i] = ms
		}
	}
}

// providersOf appends the deterministic upstream transit providers of an
// eyeball AS to out: two or three transits in its region, chosen by ASN.
func (w *World) providersOf(asn netmodel.ASN, out []netmodel.ASN) []netmodel.ASN {
	as := w.ASes[asn]
	transits := w.Transits[as.Region]
	n := 2 + int(asn)%2
	if n > len(transits) {
		n = len(transits)
	}
	for i := 0; i < n; i++ {
		out = append(out, transits[(int(asn)+i*3)%len(transits)])
	}
	return out
}

// generateRoutes works out every entry's primary and alternate routes. It
// draws no randomness, so it fans out over clouds: each cloud writes only
// its own entries.
func (w *World) generateRoutes() {
	nBGP := len(w.BGPPrefixes)
	w.routes = make([][]netmodel.Path, len(w.Clouds)*nBGP)
	parallel.ForEach(len(w.Clouds), parallel.Resolve(0), func(i int) {
		c := w.Clouds[i]
		// The cloud's routes are carved from two slabs, sized for four
		// candidates of up to two middle ASes and a detour of up to three
		// per entry.
		s := routeSlabs{paths: make([]netmodel.Path, 0, 5*nBGP), asns: make([]netmodel.ASN, 0, 11*nBGP)}
		for _, bp := range w.BGPPrefixes {
			start := len(s.paths)
			w.candidatePaths(&s, c, bp)
			paths := s.paths[start:]
			// Deterministic per-prefix primary selection: an AS's prefixes
			// spread across its first two candidate paths (so no single
			// client AS dominates a middle segment's aggregate — Insight-2
			// needs middle aggregates to mix many ASes) with a small share
			// on later candidates, while different BGP prefixes of one AS
			// use different providers (the paper finds only 47% of
			// <AS,Metro> pairs see a single path).
			sel := (int(bp.ID) + int(c.ID)*7) % 12
			idx := 0
			switch {
			case sel < 5:
				idx = 0
			case sel < 10:
				idx = 1
			default:
				idx = 2
			}
			// Primaries stay on the shortest candidate paths; longer
			// detours exist only as churn alternates, so middle aggregates
			// are not fragmented across rarely-used AS sequences. The
			// primary moves to the front; the other candidates, none equal
			// to it, keep their order as its alternates.
			k := idx % primaryPool(paths)
			primary := paths[k]
			copy(paths[1:k+1], paths[:k])
			paths[0] = primary
			// A prefix-specific detour: route churn frequently lands on an
			// AS sequence nobody else is using, which is what makes stale
			// background baselines useless until the path is re-probed
			// (the Fig. 13 periodic-only decline).
			w.detourPath(&s, primary, bp)
			w.routes[int(c.ID)*nBGP+int(bp.ID)] = s.paths[start:len(s.paths):len(s.paths)]
		}
	})
}

// routeSlabs holds the paths and middle AS sequences of one cloud's
// routes, each handed out as a slice capped at its own length.
type routeSlabs struct {
	paths []netmodel.Path
	asns  []netmodel.ASN
}

// middle copies an AS sequence into the slab.
func (s *routeSlabs) middle(asns ...netmodel.ASN) []netmodel.ASN {
	n := len(s.asns)
	s.asns = append(s.asns, asns...)
	return s.asns[n:len(s.asns):len(s.asns)]
}

// primaryPool returns the number of leading candidates with the minimal
// middle length (the single-transit paths for intra-region routes).
func primaryPool(paths []netmodel.Path) int {
	minLen := len(paths[0].Middle)
	for _, p := range paths {
		if len(p.Middle) < minLen {
			minLen = len(p.Middle)
		}
	}
	n := 0
	for _, p := range paths {
		if len(p.Middle) == minLen {
			n++
		} else {
			break // candidates are ordered shortest-first
		}
	}
	if n == 0 {
		return len(paths)
	}
	return n
}

// detourPath appends a prefix-specific alternate of a path to the slab's
// paths, when there is one: the path with an extra regional transit hop
// inserted before the client's provider.
func (w *World) detourPath(s *routeSlabs, primary netmodel.Path, bp netmodel.BGPPrefix) {
	clientReg := w.ASes[bp.AS].Region
	transits := w.Transits[clientReg]
	if len(transits) < 2 || len(primary.Middle) == 0 {
		return
	}
	last := len(primary.Middle) - 1
	provider := primary.Middle[last]
	t := transits[(int(provider)+int(bp.ID))%len(transits)]
	if t == provider {
		t = transits[(int(provider)+int(bp.ID)+1)%len(transits)]
	}
	if t == provider || slices.Contains(primary.Middle, t) {
		return // no other transit, or already on path
	}
	var buf [8]netmodel.ASN
	d := primary
	d.Middle = s.middle(append(append(buf[:0], primary.Middle[:last]...), t, provider)...)
	s.paths = append(s.paths, d)
}

// candidatePaths appends the plausible AS-level routes from a cloud
// location to a BGP prefix to the slab's paths, shortest first and without
// duplicates.
func (w *World) candidatePaths(s *routeSlabs, c netmodel.CloudLocation, bp netmodel.BGPPrefix) {
	clientAS := bp.AS
	clientReg := w.ASes[clientAS].Region
	var buf [3]netmodel.ASN
	providers := w.providersOf(clientAS, buf[:0])
	out, from := s.paths, len(s.paths)
	if c.Region == clientReg {
		// Intra-region: cloud peers directly with the regional transits.
		// Single-transit paths come first; the rarer two-transit detour is
		// last so the weighted primary selection keeps it a minority.
		for _, p := range providers {
			out = append(out, netmodel.Path{Cloud: c.ID, Middle: s.middle(p), Client: clientAS})
		}
		if len(w.Transits[clientReg]) > 1 {
			p0 := providers[0]
			other := w.Transits[clientReg][(int(p0)+1)%len(w.Transits[clientReg])]
			if other != p0 {
				out = append(out, netmodel.Path{Cloud: c.ID, Middle: s.middle(other, p0), Client: clientAS})
			}
		}
	} else {
		// Cross-region: a tier-1 backbone carries the long haul into the
		// client's regional provider. Each cloud location leans on a small
		// set of backbone carriers (as real edges do), so cross-region
		// traffic through one location shares middle segments.
		for i, p := range providers {
			t1 := w.Tier1s[(int(c.ID)+i)%len(w.Tier1s)]
			out = append(out, netmodel.Path{Cloud: c.ID, Middle: s.middle(t1, p), Client: clientAS})
		}
		t1b := w.Tier1s[(int(c.ID)+int(clientAS))%len(w.Tier1s)]
		out = append(out, netmodel.Path{Cloud: c.ID, Middle: s.middle(t1b, providers[0]), Client: clientAS})
	}
	// Deduplicate while preserving order.
	uniq := out[:from]
	for _, p := range out[from:] {
		if !slices.ContainsFunc(uniq[from:], p.Equal) {
			uniq = append(uniq, p)
		}
	}
	s.paths = uniq
}

// generateAttachments assigns the anycast steering of every prefix: the
// nearest in-region location by the deterministic (metro, AS) hash, with
// an occasional secondary spillover location.
func (w *World) generateAttachments(r *rand.Rand, scale Scale) {
	atts := make([][]CloudAttachment, len(w.Prefixes))
	for i, p := range w.Prefixes {
		reg := w.Metros[p.Metro].Region
		regClouds := w.cloudsByReg[reg]
		primary := regClouds[(int(p.Metro)+int(p.AS))%len(regClouds)]
		att := []CloudAttachment{{Cloud: primary, Weight: 1.0}}
		if r.Float64() < scale.SecondaryCloudShare {
			// Anycast occasionally lands clients on another location —
			// usually in-region, sometimes a neighboring region.
			// Anycast overwhelmingly keeps the spillover in-region; only a
			// sliver of clients land on a neighbouring region's location.
			var sec netmodel.CloudID
			if len(regClouds) > 1 && r.Float64() < 0.92 {
				sec = regClouds[(int(primary)+1+r.Intn(len(regClouds)-1))%len(regClouds)]
				for sec == primary {
					sec = regClouds[r.Intn(len(regClouds))]
				}
			} else {
				oreg := netmodel.Region((int(reg) + 1 + r.Intn(netmodel.NumRegions-1)) % netmodel.NumRegions)
				oc := w.cloudsByReg[oreg]
				sec = oc[r.Intn(len(oc))]
			}
			att[0].Weight = 0.85
			att = append(att, CloudAttachment{Cloud: sec, Weight: 0.15})
		}
		atts[i] = att
	}
	w.attachments = atts
}

// deriveTargets sets region- and device-specific badness thresholds from
// the generated base RTTs, mirroring the paper's note that targets track
// regional RTT levels and that the USA's targets are comparatively
// aggressive, then works out every attachment's relaxed target.
func (w *World) deriveTargets() {
	w.deriveRegionTargets()
	w.attachTargets = make([][]float64, len(w.attachments))
	for p, atts := range w.attachments {
		pref := w.Prefixes[p]
		for _, att := range atts {
			t := w.targets[w.Metros[pref.Metro].Region][pref.Device]
			base := w.BasePathRTT(w.InitialPath(att.Cloud, pref.BGPPrefix), netmodel.PrefixID(p))
			if adj := base*1.3 + 8; adj > t {
				t = adj
			}
			w.attachTargets[p] = append(w.attachTargets[p], t)
		}
	}
}

// fallbackClass names, per device class, the class whose RTT samples set
// a region's target when the class has none of its own.
var fallbackClass = [netmodel.NumDeviceClasses]netmodel.DeviceClass{
	netmodel.NonMobile: netmodel.Mobile,
	netmodel.Mobile:    netmodel.NonMobile,
	netmodel.WiFi:      netmodel.NonMobile,
}

func (w *World) deriveRegionTargets() {
	// Region targets reflect the normal (primary, in-region) connection
	// experience; structurally distant pairs get per-pair relief in
	// TargetFor instead, so no prefix is consistently above its threshold.
	var samples [netmodel.NumRegions][netmodel.NumDeviceClasses][]float64
	for _, p := range w.Prefixes {
		reg := w.Metros[p.Metro].Region
		att := w.attachments[p.ID][0] // primary attachment
		path := w.InitialPath(att.Cloud, p.BGPPrefix)
		rtt := w.BasePathRTT(path, p.ID)
		samples[reg][p.Device] = append(samples[reg][p.Device], rtt)
	}
	for _, reg := range netmodel.AllRegions() {
		for d := 0; d < netmodel.NumDeviceClasses; d++ {
			xs := samples[reg][d]
			if len(xs) == 0 {
				// Fall back to the other device class or a generic level:
				// wired and cellular stand in for each other, and Wi-Fi
				// rides on a wired uplink.
				xs = samples[reg][fallbackClass[d]]
			}
			var target float64
			if len(xs) == 0 {
				target = 100
			} else if reg == netmodel.RegionUSA {
				// Aggressive target: barely above the P75 of normal RTTs.
				target = stats.Quantile(xs, 0.75) * 1.10
			} else {
				target = stats.Quantile(xs, 0.90) * 1.25
			}
			w.targets[reg][d] = target
		}
		// Target looseness follows access-technology penalty: wired
		// broadband <= Wi-Fi <= cellular. Never let sampling noise invert
		// that ordering.
		if w.targets[reg][netmodel.WiFi] < w.targets[reg][netmodel.NonMobile] {
			w.targets[reg][netmodel.WiFi] = w.targets[reg][netmodel.NonMobile] * 1.1
		}
		if w.targets[reg][netmodel.Mobile] < w.targets[reg][netmodel.WiFi] {
			w.targets[reg][netmodel.Mobile] = w.targets[reg][netmodel.WiFi] * 1.15
		}
	}
}

// CloudASN returns the cloud's own AS number.
func (w *World) CloudASN() netmodel.ASN { return cloudASN }

// MetrosInRegion returns the metros of a region in ID order.
func (w *World) MetrosInRegion(reg netmodel.Region) []netmodel.Metro {
	var out []netmodel.Metro
	for _, m := range w.Metros {
		if m.Region == reg {
			out = append(out, m)
		}
	}
	return out
}

// CloudsInRegion returns the cloud location IDs of a region.
func (w *World) CloudsInRegion(reg netmodel.Region) []netmodel.CloudID {
	return w.cloudsByReg[reg]
}

// PrefixesOfBGP returns the /24 prefix IDs covered by a BGP prefix.
func (w *World) PrefixesOfBGP(bp netmodel.BGPPrefixID) []netmodel.PrefixID {
	return w.prefixesByBGP[bp]
}

// Routes returns every route from a cloud location to a BGP prefix: the
// primary first, then the alternates churn may move to. The slice is the
// world's own; callers must not modify it.
func (w *World) Routes(c netmodel.CloudID, bp netmodel.BGPPrefixID) []netmodel.Path {
	return w.routes[int(c)*len(w.BGPPrefixes)+int(bp)]
}

// InitialPath returns the primary route from a cloud location to a BGP
// prefix at simulation start.
func (w *World) InitialPath(c netmodel.CloudID, bp netmodel.BGPPrefixID) netmodel.Path {
	return w.Routes(c, bp)[0]
}

// AltPaths returns alternate routes available for churn events.
func (w *World) AltPaths(c netmodel.CloudID, bp netmodel.BGPPrefixID) []netmodel.Path {
	return w.Routes(c, bp)[1:]
}

// asymHash drives the deterministic routing-asymmetry decision.
func asymHash(c netmodel.CloudID, bp netmodel.BGPPrefixID) uint64 {
	h := uint64(c)*0x9E3779B97F4A7C15 + uint64(bp)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	return h
}

// asymmetricShare is the fraction of (cloud, BGP prefix) pairs whose
// reverse (client→cloud) route differs from the forward route. Internet
// routing asymmetry is common (§5.1 cites it as the reason cloud-issued
// traceroutes may not see reverse-path problems).
const asymmetricShare = 0.35

// Asymmetric reports whether the reverse route of (cloud, BGP prefix)
// differs from the forward route.
func (w *World) Asymmetric(c netmodel.CloudID, bp netmodel.BGPPrefixID) bool {
	if len(w.Routes(c, bp)) == 1 {
		return false
	}
	return asymHash(c, bp)%1000 < uint64(asymmetricShare*1000)
}

// ReversePath returns the client→cloud route of (cloud, BGP prefix),
// expressed in the same cloud→client orientation as forward paths so path
// keys stay comparable. For symmetric pairs it equals the forward route;
// for asymmetric pairs it is one of the alternate routes, deterministically
// chosen. Reverse routes are held fixed over the simulation horizon (a
// documented simplification; forward churn is modeled in the bgp table).
func (w *World) ReversePath(c netmodel.CloudID, bp netmodel.BGPPrefixID) netmodel.Path {
	if !w.Asymmetric(c, bp) {
		return w.InitialPath(c, bp)
	}
	alts := w.AltPaths(c, bp)
	return alts[int(asymHash(c, bp)>>10)%len(alts)]
}

// Attachments returns the cloud locations a prefix's clients connect to,
// with traffic weights summing to 1.
func (w *World) Attachments(p netmodel.PrefixID) []CloudAttachment {
	return w.attachments[p]
}

// Target returns the RTT badness threshold for a client region and device
// class.
func (w *World) Target(reg netmodel.Region, d netmodel.DeviceClass) float64 {
	return w.targets[reg][d]
}

// TargetForPrefix returns the badness threshold applying to a prefix at
// its primary cloud location.
func (w *World) TargetForPrefix(p netmodel.PrefixID) float64 {
	return w.TargetFor(p, w.attachments[p][0].Cloud)
}

// TargetFor returns the badness threshold for one (prefix, cloud) quartet.
// It starts from the region- and device-specific target and, for the
// prefix's normal attachments, relaxes it so that a structurally distant
// pair (e.g. an in-region prefix anycast onto a neighbouring region's
// location) is not consistently above threshold — the paper's stated
// tuning criterion. Connections to locations the prefix does not normally
// use (e.g. after a routing accident) get no such relief.
func (w *World) TargetFor(p netmodel.PrefixID, c netmodel.CloudID) float64 {
	for i, att := range w.attachments[p] {
		if att.Cloud == c {
			return w.attachTargets[p][i]
		}
	}
	pref := w.Prefixes[p]
	return w.targets[w.Metros[pref.Metro].Region][pref.Device]
}

// PrefixRegion returns the region a prefix's metro belongs to.
func (w *World) PrefixRegion(p netmodel.PrefixID) netmodel.Region {
	return w.Metros[w.Prefixes[p].Metro].Region
}

// BaseContributions returns the static per-AS base latency contributions of
// a path serving the given prefix, ordered cloud → middle ASes → client.
// The cloud segment is attributed to the cloud ASN.
// Inter-region propagation is attributed to the first middle AS (the one
// carrying the long haul).
func (w *World) BaseContributions(path netmodel.Path, p netmodel.PrefixID) []ASContribution {
	out := make([]ASContribution, 0, len(path.Middle)+2)
	cloud := w.Clouds[path.Cloud]
	out = append(out, ASContribution{AS: cloudASN, Segment: netmodel.SegCloud, MS: w.CloudBaseMS[path.Cloud]})
	clientReg := w.PrefixRegion(p)
	prop := w.RegionPropMS[cloud.Region][clientReg]
	for i, a := range path.Middle {
		ms := w.ASBaseMS[a]
		if i == 0 {
			ms += prop
		}
		out = append(out, ASContribution{AS: a, Segment: netmodel.SegMiddle, MS: ms})
	}
	out = append(out, ASContribution{AS: path.Client, Segment: netmodel.SegClient, MS: w.PrefixBaseMS[p]})
	return out
}

// BasePathRTT sums the base contributions of a path for a prefix.
func (w *World) BasePathRTT(path netmodel.Path, p netmodel.PrefixID) float64 {
	var sum float64
	for _, c := range w.BaseContributions(path, p) {
		sum += c.MS
	}
	return sum
}

// AtomKey identifies a BGP atom: the set of BGP prefixes that share
// identical AS-level paths from every cloud location (Broido & claffy's
// policy atoms, referenced by the paper when comparing grouping choices).
func (w *World) AtomKey(bp netmodel.BGPPrefixID) string {
	keys := make([]string, 0, len(w.Clouds))
	for _, c := range w.Clouds {
		keys = append(keys, w.InitialPath(c.ID, bp).FullKey())
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}

// Stats summarizes entity counts for Table 2.
type Stats struct {
	Clouds      int
	Metros      int
	ASes        int
	EyeballASes int
	BGPPrefixes int
	Prefix24s   int
	Clients     int
}

// Stats returns entity counts.
func (w *World) Stats() Stats {
	s := Stats{
		Clouds:      len(w.Clouds),
		Metros:      len(w.Metros),
		ASes:        len(w.ASes),
		BGPPrefixes: len(w.BGPPrefixes),
		Prefix24s:   len(w.Prefixes),
	}
	for _, as := range w.ASes {
		if as.Type == netmodel.ASEyeball {
			s.EyeballASes++
		}
	}
	for _, p := range w.Prefixes {
		s.Clients += p.ActiveClients
	}
	return s
}
