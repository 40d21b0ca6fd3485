// Package baselines implements the comparison systems the paper evaluates
// BlameIt against: an active-only continuous prober (which also serves as
// the ground-truth collector of §6.4), a Trinocular-style adaptive prober
// (probe-budget comparison of §6.5), the ⟨AS, Metro⟩ grouping variant of
// the passive phase (Fig. 11), and the prefix-count impact ranking
// (Fig. 4b / Fig. 12).
package baselines

import (
	"fmt"
	"sort"

	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/netmodel"
	"blameit/internal/probe"
	"blameit/internal/stats"
	"blameit/internal/topology"
)

// repTarget is a representative probing target for one middle key.
type repTarget struct {
	cloud  netmodel.CloudID
	prefix netmodel.PrefixID
}

// registerPaths enumerates the (cloud, BGP path) pairs of a routing table
// at bucket 0 with a representative client prefix each.
func registerPaths(w *topology.World, table *bgp.Table) map[netmodel.MiddleKey]repTarget {
	reps := make(map[netmodel.MiddleKey]repTarget)
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			mk := table.PathAt(c.ID, bp.ID, 0).Key()
			if _, ok := reps[mk]; !ok {
				reps[mk] = repTarget{cloud: c.ID, prefix: w.PrefixesOfBGP(bp.ID)[0]}
			}
		}
	}
	return reps
}

// pathNormals keeps per-hop contribution reservoirs for one path, from
// which an AS's "normal" contribution is estimated as a median.
type pathNormals struct {
	hops []hopNormal
}

type hopNormal struct {
	as      netmodel.ASN
	segment netmodel.Segment
	vals    []float64
	n       int
}

const normalCap = 256

func (pn *pathNormals) update(tr probe.Traceroute) {
	if len(pn.hops) != len(tr.Hops) || !sameASes(pn.hops, tr.Hops) {
		// Path changed: restart normals.
		pn.hops = make([]hopNormal, len(tr.Hops))
		for i, h := range tr.Hops {
			pn.hops[i] = hopNormal{as: h.AS, segment: h.Segment}
		}
	}
	for i := range tr.Hops {
		h := &pn.hops[i]
		h.n++
		v := tr.Contribution(i)
		if len(h.vals) < normalCap {
			h.vals = append(h.vals, v)
			continue
		}
		j := (uint64(h.n)*0x9E3779B97F4A7C15 ^ uint64(i)) % uint64(h.n)
		if j < normalCap {
			h.vals[j] = v
		}
	}
}

func sameASes(hops []hopNormal, trHops []probe.Hop) bool {
	for i := range hops {
		if hops[i].as != trHops[i].AS {
			return false
		}
	}
	return true
}

// culprit compares a fresh traceroute against the normals and names the AS
// with the largest contribution increase.
func (pn *pathNormals) culprit(tr probe.Traceroute) (netmodel.ASN, netmodel.Segment, float64, bool) {
	if len(pn.hops) != len(tr.Hops) || !sameASes(pn.hops, tr.Hops) {
		return 0, 0, 0, false
	}
	var bestAS netmodel.ASN
	var bestSeg netmodel.Segment
	best := 0.0
	for i := range tr.Hops {
		if len(pn.hops[i].vals) == 0 {
			return 0, 0, 0, false
		}
		inc := tr.Contribution(i) - stats.Median(pn.hops[i].vals)
		if inc > best {
			best = inc
			bestAS = tr.Hops[i].AS
			bestSeg = tr.Hops[i].Segment
		}
	}
	return bestAS, bestSeg, best, true
}

// ContinuousProber is the "active probing alone" comparator: it traceroutes
// every (cloud, BGP path) at a fixed period, maintaining per-AS normal
// contributions. With a one-bucket period it doubles as the ground-truth
// collector the paper uses for large-scale corroboration (§6.4).
type ContinuousProber struct {
	Engine  *probe.Engine
	period  netmodel.Bucket
	reps    map[netmodel.MiddleKey]repTarget
	normals map[netmodel.MiddleKey]*pathNormals
}

// NewContinuousProber probes every path each `period` buckets.
func NewContinuousProber(engine *probe.Engine, table *bgp.Table, period netmodel.Bucket) *ContinuousProber {
	if period < 1 {
		period = 1
	}
	return &ContinuousProber{
		Engine:  engine,
		period:  period,
		reps:    registerPaths(engine.Sim.World, table),
		normals: make(map[netmodel.MiddleKey]*pathNormals),
	}
}

// NumPaths returns the number of maintained paths.
func (cp *ContinuousProber) NumPaths() int { return len(cp.reps) }

// ProbesPerDay returns the steady-state probing volume.
func (cp *ContinuousProber) ProbesPerDay() float64 {
	return float64(len(cp.reps)) * float64(netmodel.BucketsPerDay) / float64(cp.period)
}

// Advance issues this bucket's probes and updates per-AS normals.
func (cp *ContinuousProber) Advance(b netmodel.Bucket) {
	for mk, rep := range cp.reps {
		if int(b)%int(cp.period) != int(offsetOf(mk, cp.period)) {
			continue
		}
		tr := cp.Engine.Traceroute(rep.cloud, rep.prefix, b, probe.Background)
		pn := cp.normals[mk]
		if pn == nil {
			pn = &pathNormals{}
			cp.normals[mk] = pn
		}
		pn.update(tr)
	}
}

// Culprit traceroutes the path now and names the AS with the largest
// contribution increase over its normal (the §6.4 ground-truth method).
func (cp *ContinuousProber) Culprit(mk netmodel.MiddleKey, b netmodel.Bucket) (netmodel.ASN, netmodel.Segment, bool) {
	rep, ok := cp.reps[mk]
	if !ok {
		return 0, 0, false
	}
	pn := cp.normals[mk]
	if pn == nil {
		return 0, 0, false
	}
	tr := cp.Engine.Traceroute(rep.cloud, rep.prefix, b, probe.OnDemand)
	as, seg, _, ok := pn.culprit(tr)
	return as, seg, ok
}

// offsetOf staggers probes across the period.
func offsetOf(mk netmodel.MiddleKey, period netmodel.Bucket) netmodel.Bucket {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(mk); i++ {
		h ^= uint64(mk[i])
		h *= 1099511628211
	}
	return netmodel.Bucket(h % uint64(period))
}

// TrinocularProber is a Trinocular-style adaptive prober: each path starts
// at a fast probing cadence and backs off while measurements stay
// consistent with its belief of the path's normal RTT, snapping back to
// the fast cadence on surprises. Trinocular optimizes probing for
// reachability rather than latency, so its budget remains far above
// BlameIt's passive-first design (§6.5 reports 20×).
type TrinocularProber struct {
	Engine      *probe.Engine
	MinInterval netmodel.Bucket
	MaxInterval netmodel.Bucket

	reps     map[netmodel.MiddleKey]repTarget
	interval map[netmodel.MiddleKey]netmodel.Bucket
	next     map[netmodel.MiddleKey]netmodel.Bucket
	normal   map[netmodel.MiddleKey]float64 // belief: normal end-to-end RTT
}

// NewTrinocularProber creates the adaptive prober with the given cadence
// bounds.
func NewTrinocularProber(engine *probe.Engine, table *bgp.Table, min, max netmodel.Bucket) *TrinocularProber {
	t := &TrinocularProber{
		Engine:      engine,
		MinInterval: min,
		MaxInterval: max,
		reps:        registerPaths(engine.Sim.World, table),
		interval:    make(map[netmodel.MiddleKey]netmodel.Bucket),
		next:        make(map[netmodel.MiddleKey]netmodel.Bucket),
		normal:      make(map[netmodel.MiddleKey]float64),
	}
	for mk := range t.reps {
		t.interval[mk] = min
		t.next[mk] = offsetOf(mk, min)
	}
	return t
}

// Advance issues the probes due at bucket b and adapts per-path cadence.
func (t *TrinocularProber) Advance(b netmodel.Bucket) {
	for mk, rep := range t.reps {
		if t.next[mk] > b {
			continue
		}
		tr := t.Engine.Traceroute(rep.cloud, rep.prefix, b, probe.Background)
		rtt := tr.Hops[len(tr.Hops)-1].CumulativeMS
		norm, seen := t.normal[mk]
		if !seen {
			t.normal[mk] = rtt
			t.interval[mk] = t.MinInterval
		} else if rtt < norm*1.3 {
			// Consistent with belief: back off.
			t.normal[mk] = 0.9*norm + 0.1*rtt
			if t.interval[mk] *= 2; t.interval[mk] > t.MaxInterval {
				t.interval[mk] = t.MaxInterval
			}
		} else {
			// Surprise: probe aggressively.
			t.interval[mk] = t.MinInterval
		}
		t.next[mk] = b + t.interval[mk]
	}
}

// NumPaths returns the number of maintained paths.
func (t *TrinocularProber) NumPaths() int { return len(t.reps) }

// ASMetroKeyFunc returns the Fig. 11 baseline's grouping: middle aggregates
// keyed by ⟨client AS, metro⟩ (per cloud location) instead of the BGP path.
func ASMetroKeyFunc(w *topology.World) core.MiddleKeyFunc {
	return func(path netmodel.Path, p netmodel.PrefixID) netmodel.MiddleKey {
		pref := w.Prefixes[p]
		return netmodel.MiddleKey(fmt.Sprintf("am|c%d|a%d|m%d", path.Cloud, pref.AS, pref.Metro))
	}
}

// TupleImpact is the ranking record of §2.4: one ⟨cloud location, BGP
// path⟩ tuple with the count of problematic /24s it contains and its
// actual problem impact (affected users × duration).
type TupleImpact struct {
	Key      netmodel.MiddleKey
	Prefixes int     // problematic /24s
	Impact   float64 // clients × buckets of degradation
}

// RankByPrefixCount sorts tuples the way prior work ranks spatial
// aggregates: by the number of problematic /24s.
func RankByPrefixCount(ts []TupleImpact) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Prefixes != ts[j].Prefixes {
			return ts[i].Prefixes > ts[j].Prefixes
		}
		return ts[i].Key < ts[j].Key
	})
}

// RankByImpact sorts tuples by their actual client-time impact.
func RankByImpact(ts []TupleImpact) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Impact != ts[j].Impact {
			return ts[i].Impact > ts[j].Impact
		}
		return ts[i].Key < ts[j].Key
	})
}

// CoverageCurve returns, for a ranked tuple list, the cumulative fraction
// of total impact covered by the top k tuples (k = 1..n).
func CoverageCurve(ts []TupleImpact) []float64 {
	var total float64
	for _, t := range ts {
		total += t.Impact
	}
	out := make([]float64, len(ts))
	var run float64
	for i, t := range ts {
		run += t.Impact
		if total > 0 {
			out[i] = run / total
		}
	}
	return out
}

// TuplesToCover returns the fraction of tuples (under the given ranking)
// needed to cover the target fraction of total impact.
func TuplesToCover(curve []float64, target float64) float64 {
	for i, v := range curve {
		if v >= target {
			return float64(i+1) / float64(len(curve))
		}
	}
	return 1
}
