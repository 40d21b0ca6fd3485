// Package core implements BlameIt's passive phase: Algorithm 1 of the
// paper. Using only the quartet-level RTT observations of existing client
// connections, it assigns the blame for each bad quartet to the cloud,
// middle, or client segment — or declares the data insufficient or
// ambiguous — by hierarchical elimination starting from the cloud.
//
// The two empirical insights of §4.1 justify the approach: (1) typically
// only one segment causes the inflation, and (2) a smaller failure set is
// more likely than a larger one, so badness across a broad spectrum of a
// cloud location's clients implicates the cloud rather than thousands of
// independent client faults.
package core

import (
	"fmt"
	"sync"

	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/quartet"
)

// Blame is Algorithm 1's verdict for one bad quartet.
type Blame int

const (
	// BlameNone marks a quartet that was not bad (no verdict needed).
	BlameNone Blame = iota
	// BlameInsufficient: too few quartets in the aggregate to decide.
	BlameInsufficient
	// BlameCloud: the cloud location's own network or servers.
	BlameCloud
	// BlameMiddle: the transit ASes between cloud and client.
	BlameMiddle
	// BlameAmbiguous: the same /24 saw good RTT to another cloud location
	// in the same window, so no segment can be conclusively blamed.
	BlameAmbiguous
	// BlameClient: the client's own ISP.
	BlameClient
	numBlames
)

// String names the blame category as in the paper's figures.
func (b Blame) String() string {
	switch b {
	case BlameNone:
		return "none"
	case BlameInsufficient:
		return "insufficient"
	case BlameCloud:
		return "cloud"
	case BlameMiddle:
		return "middle"
	case BlameAmbiguous:
		return "ambiguous"
	case BlameClient:
		return "client"
	default:
		return fmt.Sprintf("Blame(%d)", int(b))
	}
}

// Categories lists the verdict categories in display order.
func Categories() []Blame {
	return []Blame{BlameCloud, BlameMiddle, BlameClient, BlameAmbiguous, BlameInsufficient}
}

// Config holds Algorithm 1's tunables. The defaults are the production
// values reported in the paper.
type Config struct {
	// Tau is the bad-fraction threshold for blaming an aggregate (τ = 0.8
	// in production; with median-based expected RTTs this tests whether
	// the distribution shifted left by 30%).
	Tau float64
	// MinAggregate is the minimum number of quartets an aggregate needs
	// before its bad fraction is meaningful (5 in Algorithm 1).
	MinAggregate int
	// WeightBySamples switches CalcBadFraction to weight quartets by their
	// RTT sample count. The paper deliberately leaves this off: a handful
	// of good high-traffic /24s must not mask badness seen by many
	// low-traffic /24s. Exposed for the ablation bench.
	WeightBySamples bool
	// UseExpectedRTT compares aggregates against learned expected RTTs
	// (§4.3); when false the static badness target is used instead.
	// Exposed for the ablation bench.
	UseExpectedRTT bool
}

// DefaultConfig returns the production parameters.
func DefaultConfig() Config {
	return Config{Tau: 0.8, MinAggregate: 5, WeightBySamples: false, UseExpectedRTT: true}
}

// PathFunc resolves the AS-level route of a quartet (from the BGP table in
// effect at the quartet's bucket).
type PathFunc func(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) netmodel.Path

// Result is Algorithm 1's verdict for one quartet.
type Result struct {
	Q     quartet.Quartet
	Blame Blame
	// Path is the AS-level route of the quartet; its MiddleKey groups the
	// quartets that share a middle segment.
	Path netmodel.Path
	// BlamedAS is filled for cloud and client verdicts, where the coarse
	// segment already identifies the AS. Middle verdicts need the active
	// phase for AS-level localization.
	BlamedAS netmodel.ASN
}

// MiddleKeyFunc derives the grouping key of a quartet's middle segment.
// BlameIt groups by the BGP path (the path's own MiddleKey); the ⟨AS,
// Metro⟩ baseline of Fig. 11 substitutes a coarser key.
type MiddleKeyFunc func(path netmodel.Path, p netmodel.PrefixID) netmodel.MiddleKey

// Route is a quartet's resolved AS-level route and the key of the middle
// aggregate the quartet is grouped into (the path's own MiddleKey unless a
// coarser grouping is in force).
type Route struct {
	Path netmodel.Path
	Key  netmodel.MiddleKey
}

// Localizer runs Algorithm 1 over one time window of quartets.
//
// A Localizer is read-only once configured: a call touches only the
// immutable cfg, thresholds, pathOf and keyOf fields plus a working scratch
// it takes from a pool for the duration of the call and clears before use,
// so one Localizer may serve any number of concurrent calls (the pipeline
// fans a job's buckets out this way) and the results cannot depend on which
// call got which scratch — provided the installed PathFunc and
// MiddleKeyFunc are themselves safe for concurrent use; the BGP table's
// path resolution is. SetMiddleKeyFunc is configuration, not operation:
// call it before sharing the Localizer across goroutines.
type Localizer struct {
	cfg     Config
	cloudAS netmodel.ASN
	pathOf  PathFunc
	th      *Thresholds
	keyOf   MiddleKeyFunc

	// Verdict counters indexed by Blame; the counters themselves are
	// atomic, so concurrent Localize calls may share them. Configuration,
	// like SetMiddleKeyFunc: install before sharing across goroutines.
	mVerdicts  [numBlames]*metrics.Counter
	mLocalized *metrics.Counter
}

// NewLocalizer builds a localizer. th may be nil, in which case the static
// badness targets stand in for learned expected RTTs. pathOf is what
// Localize resolves routes through; LocalizeRoutes does not call it.
func NewLocalizer(cfg Config, cloudAS netmodel.ASN, pathOf PathFunc, th *Thresholds) *Localizer {
	return &Localizer{
		cfg: cfg, cloudAS: cloudAS, pathOf: pathOf, th: th,
		keyOf: func(path netmodel.Path, _ netmodel.PrefixID) netmodel.MiddleKey { return path.Key() },
	}
}

// SetMiddleKeyFunc overrides how Localize groups quartets into middle
// aggregates (used by the ⟨AS, Metro⟩ grouping baseline).
func (l *Localizer) SetMiddleKeyFunc(f MiddleKeyFunc) { l.keyOf = f }

// SetMetrics mirrors verdict counts into a metrics registry
// (core.verdicts.<category> counters plus core.quartets.localized). Like
// SetMiddleKeyFunc this is configuration: call it before sharing the
// Localizer across goroutines.
func (l *Localizer) SetMetrics(reg *metrics.Registry) {
	for b := Blame(0); b < numBlames; b++ {
		l.mVerdicts[b] = reg.Counter("core.verdicts." + b.String())
	}
	l.mLocalized = reg.Counter("core.quartets.localized")
}

// aggregate accumulates the per-cloud and per-middle bad fractions.
type aggregate struct {
	n      int
	bad    int
	wTotal float64
	wBad   float64
}

func (a *aggregate) add(badVsExpected bool, samples int) {
	a.n++
	a.wTotal += float64(samples)
	if badVsExpected {
		a.bad++
		a.wBad += float64(samples)
	}
}

func (a *aggregate) badFraction(weighted bool) float64 {
	if weighted {
		if a.wTotal == 0 {
			return 0
		}
		return a.wBad / a.wTotal
	}
	if a.n == 0 {
		return 0
	}
	return float64(a.bad) / float64(a.n)
}

// expectedCloud returns the reference RTT for a cloud aggregate.
func (l *Localizer) expectedCloud(c netmodel.CloudID, d netmodel.DeviceClass, fallback float64) float64 {
	if l.cfg.UseExpectedRTT && l.th != nil {
		if v, ok := l.th.CloudExpected(c, d); ok {
			return v
		}
	}
	return fallback
}

// expectedMiddle returns the reference RTT for a middle aggregate.
func (l *Localizer) expectedMiddle(k netmodel.MiddleKey, d netmodel.DeviceClass, fallback float64) float64 {
	if l.cfg.UseExpectedRTT && l.th != nil {
		if v, ok := l.th.MiddleExpected(k, d); ok {
			return v
		}
	}
	return fallback
}

// goodSeen records which clouds a prefix reached with good RTT in the
// window — no more than the ambiguity check asks: the first such cloud and
// whether a second, different one exists. Clouds are stored +1 so the zero
// value means none.
type goodSeen struct {
	first   int32
	another bool
}

func (g *goodSeen) add(c netmodel.CloudID) {
	switch {
	case g.first == 0:
		g.first = int32(c) + 1
	case g.first != int32(c)+1:
		g.another = true
	}
}

// elsewhere reports whether the prefix saw good RTT to a cloud other than c.
func (g goodSeen) elsewhere(c netmodel.CloudID) bool {
	return g.another || g.first != 0 && g.first != int32(c)+1
}

// scratch is the working state of one localize call. It is dense where the
// IDs are (clouds, prefixes) and keeps its capacity from call to call; a
// call leaves it cleared.
type scratch struct {
	clouds  []aggregate                  // by CloudID
	good    []goodSeen                   // by PrefixID
	middles []aggregate                  // by middle index
	midIdx  map[netmodel.MiddleKey]int32 // middle key -> index into middles
	midOf   []int32                      // per quartet, its middle index
}

// scratchPool recycles scratches across calls: a window's buckets are
// localized concurrently, each call holding one for its duration.
var scratchPool = sync.Pool{
	New: func() any { return &scratch{midIdx: make(map[netmodel.MiddleKey]int32)} },
}

// grown returns s with length at least n, the new tail zeroed.
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// Localize assigns blame to every bad quartet in the window, resolving
// each sufficiently sampled quartet's route through the PathFunc and its
// middle key through the MiddleKeyFunc. See LocalizeRoutes.
func (l *Localizer) Localize(qs []quartet.Quartet) []Result {
	routes := make([]Route, len(qs))
	for i, q := range qs {
		if q.Enough {
			path := l.pathOf(q.Obs.Prefix, q.Obs.Cloud, q.Obs.Bucket)
			routes[i] = Route{Path: path, Key: l.keyOf(path, q.Obs.Prefix)}
		}
	}
	return l.LocalizeRoutes(qs, routes)
}

// LocalizeRoutes is Algorithm 1: it assigns blame to every bad quartet in
// the window, given each quartet's resolved route (routes[i] belongs to
// qs[i]; entries of quartets failing the sample gate are not read). All
// quartets of the window (good and bad) must be passed: the good ones feed
// the aggregates and the ambiguity check. Quartets failing the sample gate
// are excluded from aggregates, as in the paper.
func (l *Localizer) LocalizeRoutes(qs []quartet.Quartet, routes []Route) []Result {
	s := scratchPool.Get().(*scratch)
	s.midOf = grown(s.midOf, len(qs))

	var enough, bad int
	for i, q := range qs {
		if !q.Enough {
			continue
		}
		enough++
		o := q.Obs
		// Cloud aggregate: compare against the location's expected RTT.
		// Equality counts as bad, matching quartet.Classify's >= gate so
		// the aggregate test and the per-quartet test agree at the
		// threshold.
		s.clouds = grown(s.clouds, int(o.Cloud)+1)
		s.clouds[o.Cloud].add(o.MeanRTT >= l.expectedCloud(o.Cloud, o.Device, q.Target), o.Samples)
		// Middle aggregate, keyed by the BGP path (or a coarser grouping).
		mk := routes[i].Key
		mi, ok := s.midIdx[mk]
		if !ok {
			mi = int32(len(s.middles))
			s.midIdx[mk] = mi
			s.middles = append(s.middles, aggregate{})
		}
		s.midOf[i] = mi
		s.middles[mi].add(o.MeanRTT >= l.expectedMiddle(mk, o.Device, q.Target), o.Samples)
		s.good = grown(s.good, int(o.Prefix)+1)
		if q.Bad {
			bad++
		} else {
			s.good[o.Prefix].add(o.Cloud)
		}
	}
	l.mLocalized.Add(int64(enough))

	results := make([]Result, 0, bad)
	var byCat [numBlames]int64
	for i, q := range qs {
		if !q.Enough || !q.Bad {
			continue
		}
		o := q.Obs
		res := Result{Q: q, Path: routes[i].Path}
		cloud, middle := &s.clouds[o.Cloud], &s.middles[s.midOf[i]]
		switch {
		// An aggregate with exactly MinAggregate quartets is decidable:
		// Algorithm 1 requires "at least" MinAggregate (5) quartets.
		case cloud.n < l.cfg.MinAggregate:
			res.Blame = BlameInsufficient
		case cloud.badFraction(l.cfg.WeightBySamples) >= l.cfg.Tau:
			res.Blame = BlameCloud
			res.BlamedAS = l.cloudAS
		case middle.n < l.cfg.MinAggregate:
			res.Blame = BlameInsufficient
		case middle.badFraction(l.cfg.WeightBySamples) >= l.cfg.Tau:
			res.Blame = BlameMiddle
		case s.good[o.Prefix].elsewhere(o.Cloud):
			res.Blame = BlameAmbiguous
		default:
			res.Blame = BlameClient
			res.BlamedAS = res.Path.Client
		}
		byCat[res.Blame]++
		results = append(results, res)
	}
	// Batch the per-category counts into the shared atomic counters (one
	// Add per category per call, not per verdict).
	for b, n := range byCat {
		if n > 0 {
			l.mVerdicts[b].Add(n)
		}
	}

	// Clear what the call touched, keeping the capacity.
	for _, q := range qs {
		if q.Enough && !q.Bad {
			s.good[q.Obs.Prefix] = goodSeen{}
		}
	}
	clear(s.clouds)
	clear(s.midIdx)
	s.middles = s.middles[:0]
	scratchPool.Put(s)
	return results
}

// Summarize counts verdicts by category.
func Summarize(rs []Result) map[Blame]int {
	out := make(map[Blame]int)
	for _, r := range rs {
		out[r.Blame]++
	}
	return out
}
