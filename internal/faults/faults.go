// Package faults models wide-area latency faults: which network element is
// degraded, by how much, and for how long. It provides the long-tailed
// duration distribution from §2.3 of the paper, a randomized incident
// generator, a fast time-indexed overlay for the simulator, and a scenario
// library reproducing the real-world case studies of §6.3.
package faults

import (
	"fmt"
	"math/rand"

	"blameit/internal/netmodel"
	"blameit/internal/stats"
	"blameit/internal/topology"
)

// Kind classifies what a fault degrades.
type Kind int

const (
	// CloudFault degrades one cloud location (server overload, internal
	// routing issues, incomplete maintenance).
	CloudFault Kind = iota
	// MiddleASFault degrades a transit/tier-1 AS, either on every path
	// through it or only on paths from one cloud location.
	MiddleASFault
	// ClientASFault degrades every prefix of one eyeball AS (e.g. an ISP
	// maintenance window).
	ClientASFault
	// ClientPrefixFault degrades a single /24 (last-mile congestion).
	ClientPrefixFault
	// TrafficShift reroutes a set of prefixes to a distant cloud location
	// (the §6.3 East-Asia → US-west incident); the latency increase comes
	// from the long-haul middle segment of the new path.
	TrafficShift
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case CloudFault:
		return "cloud-fault"
	case MiddleASFault:
		return "middle-as-fault"
	case ClientASFault:
		return "client-as-fault"
	case ClientPrefixFault:
		return "client-prefix-fault"
	case TrafficShift:
		return "traffic-shift"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NoCloud marks a middle fault as unscoped (affecting paths from every
// cloud location).
const NoCloud netmodel.CloudID = -1

// Fault is one latency-degradation incident with ground truth attached.
type Fault struct {
	ID   int
	Kind Kind

	// Cloud is the degraded location (CloudFault) or the shift target
	// (TrafficShift).
	Cloud netmodel.CloudID
	// AS is the degraded AS for MiddleASFault / ClientASFault.
	AS netmodel.ASN
	// ScopeCloud restricts a MiddleASFault to paths from one cloud
	// location (NoCloud = all). This models the paper's observation that a
	// large AS may have a problem along certain paths but not all.
	ScopeCloud netmodel.CloudID
	// Prefix is the degraded /24 for ClientPrefixFault.
	Prefix netmodel.PrefixID
	// ShiftPrefixes is the set of rerouted prefixes for TrafficShift.
	ShiftPrefixes []netmodel.PrefixID

	Start    netmodel.Bucket
	Duration netmodel.Bucket
	ExtraMS  float64
	// ReverseOnly marks a MiddleASFault that congests only the
	// client→cloud direction. The TCP handshake RTT still sees it (the
	// handshake crosses both directions), but cloud-issued forward
	// traceroutes cannot attribute it — the motivation for the §5.1
	// reverse-traceroute extension.
	ReverseOnly bool
	Desc        string
}

// End returns the first bucket after the fault.
func (f Fault) End() netmodel.Bucket { return f.Start + f.Duration }

// ActiveAt reports whether the fault is in effect during the bucket.
func (f Fault) ActiveAt(b netmodel.Bucket) bool { return b >= f.Start && b < f.End() }

// GroundTruth is the answer key for a fault: which coarse segment is to
// blame and which AS an ideal fine-grained localizer should name.
type GroundTruth struct {
	Segment netmodel.Segment
	AS      netmodel.ASN
}

// Truth computes the fault's ground truth within a world.
func (f Fault) Truth(w *topology.World) GroundTruth {
	switch f.Kind {
	case CloudFault:
		return GroundTruth{Segment: netmodel.SegCloud, AS: w.CloudASN()}
	case MiddleASFault:
		return GroundTruth{Segment: netmodel.SegMiddle, AS: f.AS}
	case ClientASFault:
		return GroundTruth{Segment: netmodel.SegClient, AS: f.AS}
	case ClientPrefixFault:
		return GroundTruth{Segment: netmodel.SegClient, AS: w.Prefixes[f.Prefix].AS}
	case TrafficShift:
		// The long haul of the new path is carried by its first middle AS.
		if len(f.ShiftPrefixes) > 0 {
			bp := w.Prefixes[f.ShiftPrefixes[0]].BGPPrefix
			path := w.InitialPath(f.Cloud, bp)
			if len(path.Middle) > 0 {
				return GroundTruth{Segment: netmodel.SegMiddle, AS: path.Middle[0]}
			}
		}
		return GroundTruth{Segment: netmodel.SegMiddle}
	default:
		return GroundTruth{}
	}
}

// SampleDuration draws an incident duration in buckets from the long-tailed
// mixture calibrated to §2.3: over 60% of issues last one bucket (≤5 min)
// while ~8% exceed two hours.
func SampleDuration(r *rand.Rand) netmodel.Bucket {
	u := r.Float64()
	switch {
	case u < 0.60:
		return 1
	case u < 0.80:
		return netmodel.Bucket(2 + r.Intn(5)) // 10-30 min
	case u < 0.92:
		return netmodel.Bucket(7 + r.Intn(17)) // 35 min - 2 h
	default:
		return netmodel.Bucket(25 + int(stats.BoundedPareto(r, 1.1, 1, 60))) // > 2 h
	}
}

// Rates sets the expected number of randomly generated faults per day by
// kind. Client-side faults outnumber middle faults, which outnumber cloud
// faults, but each cloud fault touches far more quartets — reproducing the
// blame-fraction mix of Fig. 8 (middle slightly above client, cloud < 4%).
type Rates struct {
	CloudPerDay        float64
	MiddleASPerDay     float64
	ClientASPerDay     float64
	ClientPrefixPerDay float64
}

// DefaultRates is calibrated against the paper's Fig. 8 blame mix on the
// medium-scale world.
func DefaultRates() Rates {
	return Rates{
		CloudPerDay:        0.6,
		MiddleASPerDay:     30,
		ClientASPerDay:     5,
		ClientPrefixPerDay: 18,
	}
}

// Schedule is a set of faults over a simulation horizon, with fast lookup
// indexes for the simulator's hot path.
type Schedule struct {
	Faults []Fault

	byCloud    map[netmodel.CloudID][]int
	byMiddleAS map[netmodel.ASN][]int
	byClientAS map[netmodel.ASN][]int
	byPrefix   map[netmodel.PrefixID][]int
	shifts     map[netmodel.PrefixID][]int
}

// NewSchedule builds a schedule (and its indexes) from a fault list. Fault
// IDs are assigned by position.
func NewSchedule(fs []Fault) *Schedule {
	s := &Schedule{
		Faults:     append([]Fault(nil), fs...),
		byCloud:    make(map[netmodel.CloudID][]int),
		byMiddleAS: make(map[netmodel.ASN][]int),
		byClientAS: make(map[netmodel.ASN][]int),
		byPrefix:   make(map[netmodel.PrefixID][]int),
		shifts:     make(map[netmodel.PrefixID][]int),
	}
	for i := range s.Faults {
		s.Faults[i].ID = i
		f := s.Faults[i]
		switch f.Kind {
		case CloudFault:
			s.byCloud[f.Cloud] = append(s.byCloud[f.Cloud], i)
		case MiddleASFault:
			s.byMiddleAS[f.AS] = append(s.byMiddleAS[f.AS], i)
		case ClientASFault:
			s.byClientAS[f.AS] = append(s.byClientAS[f.AS], i)
		case ClientPrefixFault:
			s.byPrefix[f.Prefix] = append(s.byPrefix[f.Prefix], i)
		case TrafficShift:
			for _, p := range f.ShiftPrefixes {
				s.shifts[p] = append(s.shifts[p], i)
			}
		}
	}
	return s
}

// CloudExtra returns the extra latency injected into a cloud location at a
// bucket.
func (s *Schedule) CloudExtra(c netmodel.CloudID, b netmodel.Bucket) float64 {
	var ms float64
	for _, i := range s.byCloud[c] {
		if s.Faults[i].ActiveAt(b) {
			ms += s.Faults[i].ExtraMS
		}
	}
	return ms
}

// MiddleExtra returns the extra latency injected into a middle AS at a
// bucket on the forward (cloud→client) direction, as observed on paths
// from cloud c.
func (s *Schedule) MiddleExtra(as netmodel.ASN, c netmodel.CloudID, b netmodel.Bucket) float64 {
	return s.middleExtraDir(as, c, b, false)
}

// MiddleExtraReverse returns the extra latency injected into a middle AS
// on the reverse (client→cloud) direction only.
func (s *Schedule) MiddleExtraReverse(as netmodel.ASN, c netmodel.CloudID, b netmodel.Bucket) float64 {
	return s.middleExtraDir(as, c, b, true)
}

func (s *Schedule) middleExtraDir(as netmodel.ASN, c netmodel.CloudID, b netmodel.Bucket, reverse bool) float64 {
	var ms float64
	for _, i := range s.byMiddleAS[as] {
		f := s.Faults[i]
		if f.ReverseOnly != reverse {
			continue
		}
		if f.ActiveAt(b) && (f.ScopeCloud == NoCloud || f.ScopeCloud == c) {
			ms += f.ExtraMS
		}
	}
	return ms
}

// ClientExtra returns the extra latency injected into a client prefix at a
// bucket (from AS-wide or prefix-local faults).
func (s *Schedule) ClientExtra(p netmodel.PrefixID, as netmodel.ASN, b netmodel.Bucket) float64 {
	var ms float64
	for _, i := range s.byClientAS[as] {
		if s.Faults[i].ActiveAt(b) {
			ms += s.Faults[i].ExtraMS
		}
	}
	for _, i := range s.byPrefix[p] {
		if s.Faults[i].ActiveAt(b) {
			ms += s.Faults[i].ExtraMS
		}
	}
	return ms
}

// ShiftTarget reports whether prefix p is rerouted to another cloud at
// bucket b, and to which location.
func (s *Schedule) ShiftTarget(p netmodel.PrefixID, b netmodel.Bucket) (netmodel.CloudID, bool) {
	for _, i := range s.shifts[p] {
		if s.Faults[i].ActiveAt(b) {
			return s.Faults[i].Cloud, true
		}
	}
	return 0, false
}

// GenerateConfig controls the randomized incident generator.
type GenerateConfig struct {
	Rates Rates
	// MinExtraMS/MaxExtraMS bound the injected latency.
	MinExtraMS float64
	MaxExtraMS float64
	// MiddleRegionBoost multiplies the likelihood of middle faults landing
	// in a region's transit ASes. The paper observes still-evolving transit
	// networks (India, China, Brazil) suffer disproportionately many middle
	// issues (Fig. 9); boosting those regions reproduces that mix.
	MiddleRegionBoost map[netmodel.Region]float64
}

// DefaultGenerateConfig returns generator settings that comfortably push
// affected quartets past their badness targets.
func DefaultGenerateConfig() GenerateConfig {
	return GenerateConfig{Rates: DefaultRates(), MinExtraMS: 25, MaxExtraMS: 130}
}

// Generate draws a randomized fault schedule over [0, horizon) buckets.
func Generate(w *topology.World, cfg GenerateConfig, horizon netmodel.Bucket, seed int64) *Schedule {
	r := rand.New(rand.NewSource(seed))
	days := float64(horizon) / float64(netmodel.BucketsPerDay)
	var fs []Fault

	extra := func() float64 {
		return cfg.MinExtraMS + (cfg.MaxExtraMS-cfg.MinExtraMS)*r.Float64()
	}
	start := func() netmodel.Bucket { return netmodel.Bucket(r.Intn(int(horizon))) }
	count := func(perDay float64) int {
		mean := perDay * days
		// Poisson-ish: round with random remainder.
		n := int(mean)
		if r.Float64() < mean-float64(n) {
			n++
		}
		return n
	}

	for i := 0; i < count(cfg.Rates.CloudPerDay); i++ {
		c := w.Clouds[r.Intn(len(w.Clouds))]
		fs = append(fs, Fault{
			Kind: CloudFault, Cloud: c.ID, ScopeCloud: NoCloud,
			Start: start(), Duration: SampleDuration(r), ExtraMS: extra(),
			Desc: fmt.Sprintf("random cloud fault at %s", c.Name),
		})
	}
	// Middle faults target transit and tier-1 ASes; most are scoped to one
	// cloud location's paths (localized), some are AS-wide. Regions with
	// a boost contribute their transits proportionally more often.
	var middles []netmodel.ASN
	var weights []float64
	var weightSum float64
	addMiddle := func(as netmodel.ASN, wgt float64) {
		middles = append(middles, as)
		weights = append(weights, wgt)
		weightSum += wgt
	}
	for _, as := range w.Tier1s {
		addMiddle(as, 1)
	}
	for _, reg := range netmodel.AllRegions() {
		boost := 1.0
		if b, ok := cfg.MiddleRegionBoost[reg]; ok && b > 0 {
			boost = b
		}
		for _, as := range w.Transits[reg] {
			addMiddle(as, boost)
		}
	}
	pickMiddle := func() netmodel.ASN {
		x := r.Float64() * weightSum
		for i, wgt := range weights {
			x -= wgt
			if x <= 0 {
				return middles[i]
			}
		}
		return middles[len(middles)-1]
	}
	for i := 0; i < count(cfg.Rates.MiddleASPerDay); i++ {
		as := pickMiddle()
		scope := NoCloud
		if r.Float64() < 0.6 {
			scope = w.Clouds[r.Intn(len(w.Clouds))].ID
		}
		fs = append(fs, Fault{
			Kind: MiddleASFault, AS: as, ScopeCloud: scope,
			Start: start(), Duration: SampleDuration(r), ExtraMS: extra(),
			Desc: fmt.Sprintf("random middle fault in %s", w.ASes[as].Name),
		})
	}
	var eyeballs []netmodel.ASN
	for _, reg := range netmodel.AllRegions() {
		eyeballs = append(eyeballs, w.Eyeballs[reg]...)
	}
	for i := 0; i < count(cfg.Rates.ClientASPerDay); i++ {
		as := eyeballs[r.Intn(len(eyeballs))]
		fs = append(fs, Fault{
			Kind: ClientASFault, AS: as, ScopeCloud: NoCloud,
			Start: start(), Duration: SampleDuration(r), ExtraMS: extra(),
			Desc: fmt.Sprintf("random client-AS fault in %s", w.ASes[as].Name),
		})
	}
	for i := 0; i < count(cfg.Rates.ClientPrefixPerDay); i++ {
		p := w.Prefixes[r.Intn(len(w.Prefixes))]
		fs = append(fs, Fault{
			Kind: ClientPrefixFault, Prefix: p.ID, ScopeCloud: NoCloud,
			Start: start(), Duration: SampleDuration(r), ExtraMS: extra(),
			Desc: fmt.Sprintf("random last-mile congestion in prefix %d", p.ID),
		})
	}
	return NewSchedule(fs)
}
