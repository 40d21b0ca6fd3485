package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"blameit/internal/baselines"
	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/probe"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/stats"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// refReservoir is the learner's bounded sample, restated: algorithm R with
// the replacement index drawn from a hash of the offer count and a salt
// derived from the aggregate's key. The reference keeps it because the
// learned medians are medians of this sample, not of every value offered.
type refReservoir struct {
	vals []float64
	n    int
}

const refReservoirCap = 2048

func (r *refReservoir) add(v float64, salt uint64) {
	r.n++
	if len(r.vals) < refReservoirCap {
		r.vals = append(r.vals, v)
		return
	}
	h := uint64(r.n)*0x9E3779B97F4A7C15 + salt
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	if j := h % uint64(r.n); j < refReservoirCap {
		r.vals[j] = v
	}
}

// refMedian is the sort-based median of a sample, leaving the sample as
// it was.
func refMedian(vals []float64) float64 { return stats.Median(slices.Clone(vals)) }

type refCloudKey struct {
	c netmodel.CloudID
	d netmodel.DeviceClass
}

type refMiddleKey struct {
	k netmodel.MiddleKey
	d netmodel.DeviceClass
}

// refPipeline is the naive reference of the passive phase as the pipeline
// drives it: classify every observation, feed the learner by the true path
// key, relearn at day boundaries, run Algorithm 1 bucket by bucket over
// maps, and group the middle verdicts into issues. Every path and key is
// re-derived from the table where it is needed; nothing is pooled, cached,
// interned or resolved ahead of time.
type refPipeline struct {
	w     *topology.World
	tbl   *bgp.Table
	cfg   Config
	keyOf core.MiddleKeyFunc // nil: the path's own key

	cloud   map[refCloudKey]*refReservoir
	middle  map[refMiddleKey]*refReservoir
	thCloud map[refCloudKey]float64
	thMid   map[refMiddleKey]float64
	lastDay int
}

func newRefPipeline(w *topology.World, tbl *bgp.Table, cfg Config, keyOf core.MiddleKeyFunc) *refPipeline {
	return &refPipeline{
		w: w, tbl: tbl, cfg: cfg, keyOf: keyOf,
		cloud:  make(map[refCloudKey]*refReservoir),
		middle: make(map[refMiddleKey]*refReservoir),
	}
}

// learn offers one observation to the cloud and middle samples it
// belongs to, keyed by the path the table has in effect at its bucket.
func (r *refPipeline) learn(o trace.Observation) {
	ck := refCloudKey{o.Cloud, o.Device}
	if r.cloud[ck] == nil {
		r.cloud[ck] = &refReservoir{}
	}
	r.cloud[ck].add(o.MeanRTT, uint64(o.Cloud)<<8|uint64(o.Device))
	k := r.tbl.PathAtForPrefix(o.Cloud, o.Prefix, o.Bucket).Key()
	mk := refMiddleKey{k, o.Device}
	if r.middle[mk] == nil {
		r.middle[mk] = &refReservoir{}
	}
	var salt uint64
	for i := 0; i < len(k); i++ {
		salt = salt*131 + uint64(k[i])
	}
	r.middle[mk].add(o.MeanRTT, salt<<8|uint64(o.Device))
}

func (r *refPipeline) snapshot() {
	r.thCloud = make(map[refCloudKey]float64)
	r.thMid = make(map[refMiddleKey]float64)
	for k, res := range r.cloud {
		r.thCloud[k] = refMedian(res.vals)
	}
	for k, res := range r.middle {
		r.thMid[k] = refMedian(res.vals)
	}
}

// warmup learns from every WarmupSampleEvery'th bucket of [from, to).
func (r *refPipeline) warmup(src ingest.SourceFunc, from, to netmodel.Bucket) {
	for b := from; b < to; b += netmodel.Bucket(r.cfg.WarmupSampleEvery) {
		for _, o := range src(b, nil) {
			if o.Samples >= quartet.MinSamples {
				r.learn(o)
			}
		}
	}
	r.snapshot()
}

// groupKey is the middle aggregate a quartet falls into.
func (r *refPipeline) groupKey(path netmodel.Path, p netmodel.PrefixID) netmodel.MiddleKey {
	if r.keyOf != nil {
		return r.keyOf(path, p)
	}
	return path.Key()
}

// step classifies bucket b, feeds the learner on its sampled buckets,
// relearns at a day boundary, and returns the bucket's quartets.
func (r *refPipeline) step(src ingest.SourceFunc, b netmodel.Bucket) []quartet.Quartet {
	var qs []quartet.Quartet
	for _, o := range src(b, nil) {
		target := r.w.TargetFor(o.Prefix, o.Cloud)
		q := quartet.Quartet{Obs: o, Target: target, Enough: o.Samples >= quartet.MinSamples}
		q.Bad = q.Enough && o.MeanRTT >= target
		qs = append(qs, q)
		if q.Enough && int(b)%r.cfg.WarmupSampleEvery == 0 {
			r.learn(o)
		}
	}
	if day := b.Day(); day > r.lastDay {
		r.lastDay = day
		r.snapshot()
	}
	return qs
}

type refAgg struct{ n, bad int }

func (a *refAgg) add(bad bool) {
	a.n++
	if bad {
		a.bad++
	}
}

func (a *refAgg) tauReached(tau float64) bool { return float64(a.bad)/float64(a.n) >= tau }

// localize is Algorithm 1 over one bucket's quartets.
func (r *refPipeline) localize(qs []quartet.Quartet) []core.Result {
	cc := r.cfg.Core
	clouds := make(map[netmodel.CloudID]*refAgg)
	middles := make(map[netmodel.MiddleKey]*refAgg)
	goodAt := make(map[netmodel.PrefixID][]netmodel.CloudID)
	for _, q := range qs {
		if !q.Enough {
			continue
		}
		o := q.Obs
		expC, ok := r.thCloud[refCloudKey{o.Cloud, o.Device}]
		if !ok {
			expC = q.Target
		}
		if clouds[o.Cloud] == nil {
			clouds[o.Cloud] = &refAgg{}
		}
		clouds[o.Cloud].add(o.MeanRTT >= expC)
		mk := r.groupKey(r.tbl.PathAtForPrefix(o.Cloud, o.Prefix, o.Bucket), o.Prefix)
		expM, ok := r.thMid[refMiddleKey{mk, o.Device}]
		if !ok {
			expM = q.Target
		}
		if middles[mk] == nil {
			middles[mk] = &refAgg{}
		}
		middles[mk].add(o.MeanRTT >= expM)
		if !q.Bad {
			goodAt[o.Prefix] = append(goodAt[o.Prefix], o.Cloud)
		}
	}
	var out []core.Result
	for _, q := range qs {
		if !q.Enough || !q.Bad {
			continue
		}
		o := q.Obs
		path := r.tbl.PathAtForPrefix(o.Cloud, o.Prefix, o.Bucket)
		res := core.Result{Q: q, Path: path}
		ca, ma := clouds[o.Cloud], middles[r.groupKey(path, o.Prefix)]
		switch {
		case ca.n < cc.MinAggregate:
			res.Blame = core.BlameInsufficient
		case ca.tauReached(cc.Tau):
			res.Blame = core.BlameCloud
			res.BlamedAS = r.w.CloudASN()
		case ma.n < cc.MinAggregate:
			res.Blame = core.BlameInsufficient
		case ma.tauReached(cc.Tau):
			res.Blame = core.BlameMiddle
		case slices.ContainsFunc(goodAt[o.Prefix], func(c netmodel.CloudID) bool { return c != o.Cloud }):
			res.Blame = core.BlameAmbiguous
		default:
			res.Blame = core.BlameClient
			res.BlamedAS = path.Client
		}
		out = append(out, res)
	}
	return out
}

// checkThresholds holds the pipeline's learned thresholds to the
// reference's: the same (cloud, device) and (path key, device) entries,
// every median bit for bit.
func (r *refPipeline) checkThresholds(t *testing.T, b netmodel.Bucket, p *Pipeline) {
	t.Helper()
	th := p.Thresholds
	if th.NumCloudEntries() != len(r.thCloud) || th.NumMiddleEntries() != len(r.thMid) {
		t.Fatalf("bucket %d: %d cloud and %d middle thresholds learned, reference has %d and %d",
			b, th.NumCloudEntries(), th.NumMiddleEntries(), len(r.thCloud), len(r.thMid))
	}
	for k, want := range r.thCloud {
		if got, ok := th.CloudExpected(k.c, k.d); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("bucket %d: cloud %d %v threshold %v (ok=%v), reference %v", b, k.c, k.d, got, ok, want)
		}
	}
	for k, want := range r.thMid {
		if got, ok := th.MiddleExpected(k.k, k.d); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("bucket %d: middle %q %v threshold %v (ok=%v), reference %v", b, k.k, k.d, got, ok, want)
		}
	}
}

// refIssue is the part of an active-phase issue the passive phase decides.
type refIssue struct {
	Key      netmodel.MiddleKey
	Cloud    netmodel.CloudID
	Prefixes []netmodel.PrefixID
	Clients  int
}

// issues groups a window's middle verdicts by middle key, sorted by key.
func (r *refPipeline) issues(rs []core.Result) []refIssue {
	by := make(map[netmodel.MiddleKey]*refIssue)
	for _, res := range rs {
		if res.Blame != core.BlameMiddle {
			continue
		}
		mk := r.groupKey(res.Path, res.Q.Obs.Prefix)
		if by[mk] == nil {
			by[mk] = &refIssue{Key: mk, Cloud: res.Path.Cloud}
		}
		by[mk].Prefixes = append(by[mk].Prefixes, res.Q.Obs.Prefix)
		by[mk].Clients += res.Q.Obs.Clients
	}
	var out []refIssue
	for _, is := range by {
		out = append(out, *is)
	}
	slices.SortFunc(out, func(a, b refIssue) int {
		if a.Key < b.Key {
			return -1
		}
		if a.Key > b.Key {
			return 1
		}
		return 0
	})
	return out
}

// tinyScale is a world a few dozen prefixes wide: every aggregate is small
// enough to sit near MinAggregate and τ, and every middle key is rare
// enough that learned medians sit on observed values.
func tinyScale() topology.Scale {
	return topology.Scale{
		CloudsPerRegion: 1, MetrosPerRegion: 2, Tier1Count: 2, TransitPerRegion: 2,
		EyeballsPerRegion: 6, MinBGPPerAS: 2, MaxBGPPerAS: 3, MaxMaskShorten: 1,
		CellularASShare: 0.34, WiFiShare: 0.4, SecondaryCloudShare: 0.5,
	}
}

// wholeMS reads the simulator with every mean RTT rounded to a whole
// millisecond. Learned medians then sit exactly on observed values often
// enough that the >= of every expected-RTT comparison is decided by ties,
// not only by the strict side.
func wholeMS(s *sim.Simulator) ingest.SourceFunc {
	return func(b netmodel.Bucket, buf []trace.Observation) []trace.Observation {
		n := len(buf)
		buf = s.ObservationsAt(b, buf)
		for i := n; i < len(buf); i++ {
			buf[i].MeanRTT = math.Round(buf[i].MeanRTT)
		}
		return buf
	}
}

// TestPipelineMatchesNaiveReference is the differential oracle over the
// whole passive phase: seeded tiny worlds with generated fault sets, their
// RTTs in whole milliseconds, are stepped through Pipeline.Step across two
// day boundaries, with and
// without the ⟨AS, Metro⟩ grouping of Fig. 11, and every job's results
// must match the naive reference byte for byte in CanonicalJSON, its
// active-phase issues must be exactly the reference's grouping, and the
// run must produce every verdict category.
func TestPipelineMatchesNaiveReference(t *testing.T) {
	const days = 3
	horizon := netmodel.Bucket(days * netmodel.BucketsPerDay)
	seen := make(map[core.Blame]int)
	issues := 0
	for _, seed := range []int64{3, 11, 29} {
		for _, coarse := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/coarse=%v", seed, coarse), func(t *testing.T) {
				w := topology.Generate(tinyScale(), seed)
				tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, seed+1)
				gen := faults.DefaultGenerateConfig()
				gen.Rates.MiddleASPerDay *= 2
				gen.Rates.CloudPerDay *= 4
				gen.Rates.ClientASPerDay *= 4
				s := sim.New(w, tbl, faults.Generate(w, gen, horizon, seed+2), sim.DefaultConfig(seed+3))
				src := wholeMS(s)
				cfg := DefaultConfig()
				cfg.BudgetPerCloudPerDay = 0
				p := New(Deps{World: w, Table: tbl, Source: src, Prober: probe.NewEngine(s, cfg.ProbeNoiseMS)}, cfg)
				var keyOf core.MiddleKeyFunc
				if coarse {
					keyOf = baselines.ASMetroKeyFunc(w)
					p.SetMiddleKeyFunc(keyOf)
				}
				ref := newRefPipeline(w, tbl, p.Cfg, keyOf)
				if err := p.Warmup(0, dayStart); err != nil {
					t.Fatal(err)
				}
				ref.warmup(src, 0, dayStart)

				var window []core.Result
				for b := dayStart; b < horizon; b++ {
					window = append(window, ref.localize(ref.step(src, b))...)
					rep, err := p.Step(b)
					if err != nil {
						t.Fatal(err)
					}
					if rep == nil {
						continue
					}
					got, _ := json.Marshal(rep.Results)
					want, _ := json.Marshal(window)
					if !bytes.Equal(got, want) {
						t.Fatalf("job at bucket %d: results differ from the reference\n got %.400s\nwant %.400s", b, got, want)
					}
					var gotIssues []refIssue
					for _, v := range rep.Verdicts {
						gotIssues = append(gotIssues, refIssue{v.Issue.Key, v.Issue.Cloud, v.Issue.Prefixes, v.Issue.ObservedClients})
					}
					slices.SortFunc(gotIssues, func(a, b refIssue) int {
						if a.Key < b.Key {
							return -1
						}
						if a.Key > b.Key {
							return 1
						}
						return 0
					})
					wantIssues := ref.issues(window)
					g, _ := json.Marshal(gotIssues)
					wi, _ := json.Marshal(wantIssues)
					if !bytes.Equal(g, wi) {
						t.Fatalf("job at bucket %d: issues differ from the reference\n got %s\nwant %s", b, g, wi)
					}
					ref.checkThresholds(t, b, p)
					issues += len(wantIssues)
					for _, r := range window {
						seen[r.Blame]++
					}
					window = nil
				}
				if q := p.Quarantine().Total(); q != 0 {
					t.Fatalf("the quarantine diverted %d records of a clean feed the reference reads whole", q)
				}
			})
		}
	}
	// The oracle only holds the pipeline to what the worlds exercise.
	for _, b := range core.Categories() {
		if seen[b] == 0 {
			t.Errorf("no job produced a %v verdict", b)
		}
	}
	if issues == 0 {
		t.Error("no job produced an active-phase issue")
	}
	t.Logf("verdicts %v, issues %d", seen, issues)
}

// TestCoarseKeysReadNoLearnedState pins the ⟨AS, Metro⟩ override's
// contract with the learned state: the learner and the client predictor
// are fed by the true path key whatever the grouping. A twin pipeline
// without the override, over the same feed, must end every job with the
// same thresholds and the same client forecasts for every path key the
// table holds; and a coarse key — what a middle aggregate and an
// active-phase issue are keyed by under the override — finds no learned
// middle threshold and no client history.
func TestCoarseKeysReadNoLearnedState(t *testing.T) {
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	w := topology.Generate(tinyScale(), 3)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 4)
	gen := faults.DefaultGenerateConfig()
	gen.Rates.MiddleASPerDay *= 2
	s := sim.New(w, tbl, faults.Generate(w, gen, horizon, 5), sim.DefaultConfig(6))
	cfg := DefaultConfig()
	cfg.BudgetPerCloudPerDay = 0
	p, twin := NewSim(s, cfg), NewSim(s, cfg)
	p.SetMiddleKeyFunc(baselines.ASMetroKeyFunc(w))
	for _, q := range []*Pipeline{p, twin} {
		if err := q.Warmup(0, dayStart); err != nil {
			t.Fatal(err)
		}
	}
	coarse := 0
	for b := dayStart; b < horizon; b++ {
		rep, err := p.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Step(b); err != nil {
			t.Fatal(err)
		}
		if rep == nil {
			continue
		}
		for _, v := range rep.Verdicts {
			coarse++
			for d := netmodel.DeviceClass(0); int(d) < netmodel.NumDeviceClasses; d++ {
				if _, ok := p.Thresholds.MiddleExpected(v.Issue.Key, d); ok {
					t.Fatalf("coarse key %q has a learned %v middle threshold", v.Issue.Key, d)
				}
			}
			if c := p.Clients.Predict(v.Issue.Key, v.Issue.Bucket); c != 0 {
				t.Fatalf("coarse key %q has client history: %v clients predicted", v.Issue.Key, c)
			}
		}
		if p.Thresholds.NumMiddleEntries() != twin.Thresholds.NumMiddleEntries() {
			t.Fatalf("bucket %d: %d middle thresholds under the override, %d without", b, p.Thresholds.NumMiddleEntries(), twin.Thresholds.NumMiddleEntries())
		}
		for _, c := range w.Clouds {
			for _, bp := range w.BGPPrefixes {
				k := tbl.PathAt(c.ID, bp.ID, b).Key()
				for d := netmodel.DeviceClass(0); int(d) < netmodel.NumDeviceClasses; d++ {
					got, gotOK := p.Thresholds.MiddleExpected(k, d)
					want, wantOK := twin.Thresholds.MiddleExpected(k, d)
					if gotOK != wantOK || got != want {
						t.Fatalf("bucket %d: %q %v threshold %v (ok=%v) under the override, %v (ok=%v) without", b, k, d, got, gotOK, want, wantOK)
					}
				}
				if got, want := p.Clients.Predict(k, b+1), twin.Clients.Predict(k, b+1); got != want {
					t.Fatalf("bucket %d: %q forecasts %v clients under the override, %v without", b, k, got, want)
				}
			}
		}
	}
	if coarse == 0 || twin.Thresholds.NumMiddleEntries() == 0 {
		t.Fatalf("%d coarse issues, %d learned middle thresholds: the run exercised nothing", coarse, twin.Thresholds.NumMiddleEntries())
	}
}
