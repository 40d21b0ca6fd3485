package probe

import (
	"slices"
	"strings"

	"blameit/internal/bgp"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/topology"
)

// BackgroundConfig controls the baseline-maintenance strategy of §5.4.
type BackgroundConfig struct {
	// PeriodBuckets is the interval between periodic baseline traceroutes
	// per (cloud, BGP path). The paper's sweet spot is twice a day
	// (144 buckets = 12 hours).
	PeriodBuckets netmodel.Bucket
	// OnChurn additionally triggers a traceroute whenever the BGP listener
	// reports a path change or withdrawal for an entry.
	OnChurn bool
	// ChurnDedupeBuckets skips a churn-triggered probe when the new path
	// already has a baseline younger than this, keeping churn overhead
	// modest (0 disables deduplication).
	ChurnDedupeBuckets netmodel.Bucket
}

// DefaultBackgroundConfig is the production sweet spot: 12-hourly probes
// plus churn triggers (§6.5, Fig. 13).
func DefaultBackgroundConfig() BackgroundConfig {
	return BackgroundConfig{
		PeriodBuckets:      12 * netmodel.BucketsPerHour,
		OnChurn:            true,
		ChurnDedupeBuckets: 12 * netmodel.BucketsPerHour,
	}
}

// historyLen bounds the per-path baseline history. The active phase needs
// a baseline that predates an ongoing issue; a short ring suffices because
// issues are detected within one job period of starting.
const historyLen = 8

// Baseliner maintains baseline traceroutes for every (cloud, BGP path),
// refreshed periodically and on BGP churn. Drive it forward one bucket at
// a time with Advance.
type Baseliner struct {
	cfg      BackgroundConfig
	prober   Prober
	world    *topology.World
	table    *bgp.Table
	listener *bgp.Listener

	// due[o] lists the registered paths whose periodic probe falls on the
	// buckets b with b % PeriodBuckets == o, each with a representative
	// client prefix to probe and its cloud location. Each list is sorted by
	// key, so a bucket's probes are issued in the same order on every run.
	// numPaths counts the registered paths whatever the period.
	due      [][]repTarget
	numPaths int
	// baselines holds the recent traceroutes per middle key, oldest first,
	// indexed by the routing table's KeyID.
	baselines [][]Traceroute
	// suppressed pauses periodic refreshes for paths with an ongoing
	// latency issue, so the "normal picture" is not overwritten by
	// incident measurements: a path's refreshes resume at the bucket held
	// here, by KeyID (0, the zero value, suppresses nothing).
	suppressed []netmodel.Bucket

	mSuppressions *metrics.Counter
	mSkipped      *metrics.Counter
	mChurnDeduped *metrics.Counter
	reg           *metrics.Registry
	mFailed       *metrics.Counter // lazy: registered on first failed probe
}

type repTarget struct {
	id     netmodel.KeyID
	cloud  netmodel.CloudID
	prefix netmodel.PrefixID
}

// NewBaseliner builds the manager around a live traceroute engine. It is a
// convenience for NewBaselinerWith that borrows the engine's simulator
// topology.
func NewBaseliner(cfg BackgroundConfig, engine *Engine, table *bgp.Table) *Baseliner {
	return NewBaselinerWith(cfg, engine, engine.Sim.World, table)
}

// NewBaselinerWith builds the manager over any Prober and registers every
// (cloud, BGP path) pair present in the routing table at bucket 0. No
// probes are issued yet; the first Advance cycle establishes baselines.
// The world supplies the BGP-prefix → representative-/24 mapping; it must
// describe the same topology the prober measures.
func NewBaselinerWith(cfg BackgroundConfig, prober Prober, w *topology.World, table *bgp.Table) *Baseliner {
	bg := &Baseliner{
		cfg:        cfg,
		prober:     prober,
		world:      w,
		table:      table,
		listener:   bgp.NewListener(table),
		baselines:  make([][]Traceroute, table.NumKeys()),
		suppressed: make([]netmodel.Bucket, table.NumKeys()),
	}
	periodic := cfg.PeriodBuckets > 0
	if periodic {
		bg.due = make([][]repTarget, cfg.PeriodBuckets)
	}
	registered := make([]bool, table.NumKeys())
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			_, id := table.RouteAt(c.ID, bp.ID, 0)
			if registered[id] {
				continue
			}
			registered[id] = true
			bg.numPaths++
			if periodic {
				o := offset(table.Key(id), cfg.PeriodBuckets)
				bg.due[o] = append(bg.due[o], repTarget{id: id, cloud: c.ID, prefix: w.PrefixesOfBGP(bp.ID)[0]})
			}
		}
	}
	for _, l := range bg.due {
		slices.SortFunc(l, func(a, b repTarget) int { return strings.Compare(string(table.Key(a.id)), string(table.Key(b.id))) })
	}
	return bg
}

// NumPaths returns the number of distinct (cloud, BGP path) baselines
// being maintained.
func (bg *Baseliner) NumPaths() int { return bg.numPaths }

// SetMetrics mirrors the baseliner's suppression and churn-dedup activity
// into a metrics registry (probe.baseline.* counters).
func (bg *Baseliner) SetMetrics(reg *metrics.Registry) {
	bg.reg = reg
	bg.mSuppressions = reg.Counter("probe.baseline.suppressions")
	bg.mSkipped = reg.Counter("probe.baseline.refreshes_suppressed")
	bg.mChurnDeduped = reg.Counter("probe.baseline.churn_deduped")
}

// offset staggers periodic probes across the period so they do not all
// fire in one bucket. It is computed once per path, at registration.
func offset(mk netmodel.MiddleKey, period netmodel.Bucket) netmodel.Bucket {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(mk); i++ {
		h ^= uint64(mk[i])
		h *= 1099511628211
	}
	return netmodel.Bucket(h % uint64(period))
}

// store appends a baseline to the key's history ring. A failed traceroute
// (no hops — every attempt exhausted on a fallible prober) is dropped: a
// hopless entry could never be compared against, and overwriting a good
// baseline with it would blind the active phase exactly when probes are
// flaky. The drop is counted (probe.baseline.failed, registered lazily so
// fault-free snapshots are unchanged).
func (bg *Baseliner) store(tr Traceroute) {
	if len(tr.Hops) == 0 {
		if bg.mFailed == nil && bg.reg != nil {
			bg.mFailed = bg.reg.Counter("probe.baseline.failed")
		}
		bg.mFailed.Inc()
		return
	}
	id, ok := bg.pathID(tr)
	if !ok {
		return
	}
	h := append(bg.baselines[id], tr)
	if len(h) > historyLen {
		h = h[len(h)-historyLen:]
	}
	bg.baselines[id] = h
}

// pathID returns the KeyID of the path a traceroute took. A probe follows
// the route the table has in effect, whose ID is stored with it; only a
// path that differs from that route is formatted and looked up, and one
// the table has never held has no baseline slot.
func (bg *Baseliner) pathID(tr Traceroute) (netmodel.KeyID, bool) {
	path, id := bg.table.RouteAtForPrefix(tr.Cloud, tr.Prefix, tr.Bucket)
	if tr.Path.Equal(path) {
		return id, true
	}
	return bg.table.Keys().ID(tr.Path.Key())
}

// Suppress pauses periodic refreshes of the given paths until the given
// bucket. The pipeline calls this for paths with ongoing middle issues so
// incident measurements never overwrite the pre-fault picture.
func (bg *Baseliner) Suppress(keys []netmodel.MiddleKey, until netmodel.Bucket) {
	for _, mk := range keys {
		id, ok := bg.table.Keys().ID(mk)
		if ok && bg.suppressed[id] < until {
			bg.suppressed[id] = until
			bg.mSuppressions.Inc()
		}
	}
}

// Advance runs the background prober for bucket b: issues the periodic
// probes scheduled for this bucket and, if configured, probes entries the
// BGP listener reports as changed.
func (bg *Baseliner) Advance(b netmodel.Bucket) {
	// Periodic refresh, staggered per path; suppressed paths keep their
	// pre-incident picture.
	if bg.cfg.PeriodBuckets > 0 && b >= 0 {
		for _, rep := range bg.due[b%bg.cfg.PeriodBuckets] {
			if b < bg.suppressed[rep.id] {
				bg.mSkipped.Inc()
				continue
			}
			tr := bg.prober.Traceroute(rep.cloud, rep.prefix, b, Background)
			bg.store(tr)
		}
	}
	// Churn triggers: probe the affected client prefix from the affected
	// cloud, which establishes a baseline for the new path. Events whose
	// new path already has a fresh baseline are deduplicated.
	events := bg.listener.Poll(b + 1)
	if bg.cfg.OnChurn {
		for _, ev := range events {
			if bg.cfg.ChurnDedupeBuckets > 0 {
				if h := bg.baselines[ev.NewID]; len(h) > 0 && b-h[len(h)-1].Bucket <= bg.cfg.ChurnDedupeBuckets {
					bg.mChurnDeduped.Inc()
					continue
				}
			}
			kids := bg.world.PrefixesOfBGP(ev.BGPPrefix)
			tr := bg.prober.Traceroute(ev.Cloud, kids[0], b, ChurnTriggered)
			bg.store(tr)
			// Churn-discovered paths are NOT added to the periodic set:
			// periodic traceroutes to the registered representatives follow
			// whatever route is current and refresh the right key, so the
			// periodic volume stays at two probes per path per day.
		}
	}
}

// history returns the retained baselines of a middle key, oldest first.
func (bg *Baseliner) history(mk netmodel.MiddleKey) []Traceroute {
	if id, ok := bg.table.Keys().ID(mk); ok {
		return bg.baselines[id]
	}
	return nil
}

// Baseline returns the latest baseline traceroute for a middle key.
func (bg *Baseliner) Baseline(mk netmodel.MiddleKey) (Traceroute, bool) {
	h := bg.history(mk)
	if len(h) == 0 {
		return Traceroute{}, false
	}
	return h[len(h)-1], true
}

// BaselineBefore returns the most recent baseline taken at or before the
// cutoff bucket — the "picture prior to the fault" the §5.2 comparison
// needs. It falls back to the oldest retained baseline when every retained
// entry postdates the cutoff.
func (bg *Baseliner) BaselineBefore(mk netmodel.MiddleKey, cutoff netmodel.Bucket) (Traceroute, bool) {
	h := bg.history(mk)
	if len(h) == 0 {
		return Traceroute{}, false
	}
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Bucket <= cutoff {
			return h[i], true
		}
	}
	return h[0], true
}

// BaselineAge returns how stale the latest baseline of a middle key is at
// bucket b, and whether one exists.
func (bg *Baseliner) BaselineAge(mk netmodel.MiddleKey, b netmodel.Bucket) (netmodel.Bucket, bool) {
	tr, ok := bg.Baseline(mk)
	if !ok {
		return 0, false
	}
	return b - tr.Bucket, true
}
