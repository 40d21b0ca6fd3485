// Package pipeline wires every BlameIt component into the production
// workflow of Fig. 7: passive RTT collection at the cloud locations, the
// periodic Algorithm 1 job at the analytics cluster, middle-issue
// prioritization with budgeted on-demand traceroutes, background baseline
// maintenance, and impact-ranked operator alerts.
//
// The pipeline is decoupled from where its telemetry comes from: passive
// observations arrive through an ingest.ObservationSource (live simulator,
// streaming trace replay, the daemon's queue of raw records and edge
// partials) and are classified as read, with only the quarantine in
// between; active measurements go through a probe.Prober (live traceroute
// engine or a recorded-probe replay). The simulator is just one backend
// among several; see NewSim for the conventional live wiring.
package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"blameit/internal/active"
	"blameit/internal/alerting"
	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/parallel"
	"blameit/internal/predict"
	"blameit/internal/probe"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// Config assembles the tunables of every stage.
type Config struct {
	Core       core.Config
	Background probe.BackgroundConfig
	// BudgetPerCloudPerDay caps on-demand traceroutes per location (0 =
	// unlimited).
	BudgetPerCloudPerDay int
	// RunEvery is the cadence of the Algorithm 1 job in buckets (3 = every
	// 15 minutes, as in production).
	RunEvery int
	// TopNAlerts bounds the tickets emitted per job run (0 = unlimited).
	TopNAlerts int
	// ProbeNoiseMS is the traceroute engine's per-hop noise. It only
	// applies to the sim-backed wiring (NewSim/SimDeps), which constructs
	// the engine; a caller supplying its own Prober configures noise there.
	ProbeNoiseMS float64
	// WarmupSampleEvery subsamples warmup buckets when learning expected
	// RTTs (1 = every bucket).
	WarmupSampleEvery int
	// SourceRetries is how many times a transient observation-read error
	// (ingest.TransientError) is retried before the bucket is declared
	// dark — skipped, its records lost, the loss counted
	// (pipeline.source.dark_buckets). Fatal errors never retry. 0 disables
	// retries; negative is invalid.
	SourceRetries int
	// Retry is the policy of the probe.RetryingProber the pipeline wraps
	// around fallible probers (implementations of probe.ErrProber). Zero
	// values take probe.DefaultRetryConfig. Infallible probers — the
	// simulated Engine, the Replayer — are never wrapped, so fault-free
	// and replay runs are untouched.
	Retry probe.RetryConfig
	// Workers caps the concurrency of the Algorithm 1 job: the per-bucket
	// core.Localize calls of one window run on up to Workers goroutines
	// and their Results are merged in bucket order, so reports are
	// identical at any worker count. Non-positive means
	// runtime.GOMAXPROCS(0); 1 forces the sequential path.
	Workers int
	// Metrics is the registry every stage reports into. Nil falls back to
	// the process default registry (see metrics.EnableDefault) and, when
	// that is also unset, to a fresh private registry — so Pipeline.Metrics
	// is always usable and per-pipeline counts stay isolated by default.
	Metrics *metrics.Registry
}

// DefaultConfig returns the production-like configuration.
func DefaultConfig() Config {
	return Config{
		Core:                 core.DefaultConfig(),
		Background:           probe.DefaultBackgroundConfig(),
		BudgetPerCloudPerDay: 50,
		RunEvery:             3,
		TopNAlerts:           10,
		ProbeNoiseMS:         0.5,
		WarmupSampleEvery:    4,
		SourceRetries:        2,
	}
}

// Validate rejects configurations with no meaningful interpretation —
// negative counts, thresholds outside their domain — instead of silently
// correcting them. The zero-value sentinels stay valid (Workers 0 = all
// cores, RunEvery/WarmupSampleEvery 0 = every bucket, TopNAlerts/
// BudgetPerCloudPerDay 0 = unlimited). New panics on an invalid config;
// callers assembling configs from external input (flags) should Validate
// first and report the error.
func (c Config) Validate() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("pipeline: Workers %d must be >= 0 (0 = all cores)", c.Workers)
	case c.RunEvery < 0:
		return fmt.Errorf("pipeline: RunEvery %d must be >= 0 (0 = every bucket)", c.RunEvery)
	case c.WarmupSampleEvery < 0:
		return fmt.Errorf("pipeline: WarmupSampleEvery %d must be >= 0 (0 = every bucket)", c.WarmupSampleEvery)
	case c.TopNAlerts < 0:
		return fmt.Errorf("pipeline: TopNAlerts %d must be >= 0 (0 = unlimited)", c.TopNAlerts)
	case c.BudgetPerCloudPerDay < 0:
		return fmt.Errorf("pipeline: BudgetPerCloudPerDay %d must be >= 0 (0 = unlimited)", c.BudgetPerCloudPerDay)
	case math.IsNaN(c.ProbeNoiseMS) || c.ProbeNoiseMS < 0:
		return fmt.Errorf("pipeline: ProbeNoiseMS %v must be >= 0", c.ProbeNoiseMS)
	case c.SourceRetries < 0:
		return fmt.Errorf("pipeline: SourceRetries %d must be >= 0", c.SourceRetries)
	case math.IsNaN(c.Core.Tau) || c.Core.Tau <= 0 || c.Core.Tau > 1:
		return fmt.Errorf("pipeline: Core.Tau %v must be in (0, 1]", c.Core.Tau)
	case c.Core.MinAggregate < 1:
		return fmt.Errorf("pipeline: Core.MinAggregate %d must be >= 1", c.Core.MinAggregate)
	case c.Background.PeriodBuckets < 0:
		return fmt.Errorf("pipeline: Background.PeriodBuckets %d must be >= 0 (0 = no periodic probes)", c.Background.PeriodBuckets)
	case c.Background.ChurnDedupeBuckets < 0:
		return fmt.Errorf("pipeline: Background.ChurnDedupeBuckets %d must be >= 0 (0 = no dedup)", c.Background.ChurnDedupeBuckets)
	}
	return nil
}

// windowRun is one stepped bucket's classified quartets and, beside each
// sufficiently sampled one, the route Step resolved for it (routes[i]
// belongs to qs[i]). Step appends buckets in increasing order (the trackers
// enforce monotonicity), so a window's runs are always sorted by bucket.
type windowRun struct {
	b      netmodel.Bucket
	qs     []quartet.Quartet
	routes []core.Route
}

// Report is the output of one Algorithm 1 job run.
type Report struct {
	// From and To delimit the window's buckets: [From, To].
	From, To netmodel.Bucket
	// Results are per-quartet verdicts across the window.
	Results []core.Result
	// Verdicts are the active phase's AS-level localizations.
	Verdicts []active.Verdict
	// Tickets are the impact-ranked operator alerts.
	Tickets []alerting.Ticket
	// Health grades the data plane over this job interval: what the
	// ingestion and probing layers absorbed (quarantined records, retried
	// reads, dark buckets, failed probes, open circuits) and the resulting
	// per-component state. Excluded from CanonicalJSON — health describes
	// the transport, not the verdicts, and a degraded replay of a perfect
	// recording must still be byte-equivalent.
	Health Health
	// Final marks a report produced by Finalize (a drain's partial-window
	// flush) rather than the job cadence. Excluded from CanonicalJSON —
	// it describes how the run stopped, not what was observed. Durability
	// layers use it: a recovering step loop regenerates cadence reports on
	// its own, and a journaled final report tells it where to flush again.
	Final bool
}

// ComponentHealth grades one data-plane component over a job interval.
type ComponentHealth int

const (
	// Healthy means no faults were observed in the interval.
	Healthy ComponentHealth = iota
	// Degraded means faults occurred but were absorbed: retried reads,
	// quarantined records, failed probe attempts that later succeeded.
	Degraded
	// Dark means the component delivered nothing usable: every bucket of
	// the interval was lost, or probe circuits are open.
	Dark
)

// String names the health state.
func (h ComponentHealth) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Dark:
		return "dark"
	default:
		return fmt.Sprintf("ComponentHealth(%d)", int(h))
	}
}

// Health is the per-component data-plane summary attached to each Report,
// with the interval counts behind each grade. It is also mirrored into the
// pipeline.health.source / pipeline.health.prober gauges (0 healthy,
// 1 degraded, 2 dark).
type Health struct {
	Source ComponentHealth `json:"source"`
	Prober ComponentHealth `json:"prober"`
	// Source-side interval counts.
	Quarantined   int64 `json:"quarantined,omitempty"`
	SourceRetries int64 `json:"source_retries,omitempty"`
	DarkBuckets   int64 `json:"dark_buckets,omitempty"`
	// Prober-side interval counts (zero unless the prober is fallible).
	ProbeFailures  int64 `json:"probe_failures,omitempty"`
	ProbeExhausted int64 `json:"probe_exhausted,omitempty"`
	OpenCircuits   int   `json:"open_circuits,omitempty"`
}

// canonicalReport is the deterministic projection of a Report: everything
// except Health and Final, which describe the transport and how the run
// stopped, not what was observed. CanonicalJSON writes its json.Marshal
// bytes (canonical.go); ReportFromCanonical reads them back through it.
type canonicalReport struct {
	From     netmodel.Bucket   `json:"from"`
	To       netmodel.Bucket   `json:"to"`
	Results  []core.Result     `json:"results"`
	Verdicts []active.Verdict  `json:"verdicts"`
	Tickets  []alerting.Ticket `json:"tickets"`
}

// ReportFromCanonical reconstructs a report from its CanonicalJSON bytes.
// Health is zero — the canonical form deliberately excludes it. Restart
// recovery uses it to tell a mismatched journaled report from bytes that
// are not a report, and to serve a journaled report the backend never
// regenerated.
func ReportFromCanonical(data []byte) (*Report, error) {
	var c canonicalReport
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("pipeline: decoding canonical report: %w", err)
	}
	return &Report{
		From: c.From, To: c.To, Results: c.Results, Verdicts: c.Verdicts, Tickets: c.Tickets,
	}, nil
}

// Deps are the pipeline's external dependencies: the topology and routing
// views shared with the telemetry backends, the passive telemetry feed, and
// the active-phase prober. World, Table, Source, and Prober are required.
// Source is the one telemetry feed, whoever produced the observations — a
// trace, a simulator, the daemon's queue over raw records and edge
// partials alike: Step validates the bucket's stream and classifies it.
type Deps struct {
	World  *topology.World
	Table  *bgp.Table
	Source ingest.ObservationSource
	Prober probe.Prober
}

// SimDeps is the conventional live wiring over a simulator: observations
// are generated by the sim on demand and probes are served by the live
// traceroute engine.
func SimDeps(s *sim.Simulator, probeNoiseMS float64) Deps {
	return Deps{
		World:  s.World,
		Table:  s.Routes,
		Source: ingest.SourceFunc(s.ObservationsAt),
		Prober: probe.NewEngine(s, probeNoiseMS),
	}
}

// Pipeline is the assembled system.
type Pipeline struct {
	World *topology.World
	Table *bgp.Table
	Cfg   Config

	// Source feeds the passive phase; Prober serves the active phase.
	Source ingest.ObservationSource
	Prober probe.Prober

	// Metrics is the registry every stage of this pipeline reports into.
	Metrics *metrics.Registry

	Baseliner  *probe.Baseliner
	Budget     *probe.Budget
	Learner    *core.Learner
	Thresholds *core.Thresholds
	Passive    *core.Localizer
	Active     *active.Localizer
	Durations  *predict.DurationPredictor
	Clients    *predict.ClientPredictor
	Alerter    *alerting.Alerter

	// Persistence trackers.
	QuartetTracker *quartet.Tracker
	MiddleTracker  *active.Tracker

	// keyFunc is the optional middle-grouping override; coarse is the key
	// space its keys are interned into, apart from the table's, so a
	// coarse ID can only ever name a coarse group.
	keyFunc core.MiddleKeyFunc
	coarse  netmodel.KeySpace

	// routes follows the table bucket by bucket: Step and Warmup seek it
	// once per bucket and read each observation's route with an index.
	routes *bgp.Cursor

	// lastRelearnDay tracks the daily expected-RTT refresh (production
	// recomputes the trailing 14-day medians continuously).
	lastRelearnDay int

	// window accumulates classified quartets between job runs, one run per
	// stepped bucket. obsBuf is the bucket being stepped: the source's read,
	// filtered in place by the quarantine, which guarantees every record kept
	// at Step(b) carries Bucket == b and a (prefix, cloud, device) key no
	// other kept record has — so Step classifies the buffer as it stands and
	// grouping happens incrementally at append time; the job consumes the
	// runs directly instead of rescanning the whole window into a per-bucket
	// map on every run. Runs (and their qs
	// and routes backing arrays) are recycled across jobs. windowFrom is the
	// first bucket actually stepped into the current window (the job's
	// Report.From is clamped to it, so a run starting on a bucket unaligned
	// with RunEvery never reports buckets it did not step).
	window       []windowRun
	windowFrom   netmodel.Bucket
	windowPrimed bool
	obsBuf       []trace.Observation

	// Metric handles (fetched once in New; nil-safe no-ops never occur
	// here since the pipeline always has a registry).
	mStageCollect  *metrics.Histogram
	mStageClassify *metrics.Histogram
	mStageLocalize *metrics.Histogram
	mStageActive   *metrics.Histogram
	mStageAlert    *metrics.Histogram
	mJobMS         *metrics.Histogram
	mWindowQs      *metrics.Histogram
	mWindowBuckets *metrics.Histogram
	mJobs          *metrics.Counter
	mRelearns      *metrics.Counter
	mObsCollected  *metrics.Counter
	mBadQuartets   *metrics.Counter

	// quar is the ingestion quarantine every observation read is validated
	// through; srcRetries/darkBuckets account transient-read recovery.
	// The last* fields are the cumulative values at the previous report,
	// for Health interval deltas. The fault counters register lazily so a
	// clean run's metric snapshot is unchanged.
	quar           *ingest.Quarantine
	srcRetries     int64
	darkBuckets    int64
	mSourceRetries *metrics.Counter
	mDarkBuckets   *metrics.Counter
	mHealthSource  *metrics.Gauge
	mHealthProber  *metrics.Gauge
	lastQuarTotal  int64
	lastSrcRetries int64
	lastDark       int64
	lastProbeStats probe.RetryStats
}

// New assembles a pipeline over explicit dependencies. The simulator is
// not among them: any ObservationSource / Prober pair over a consistent
// topology works, which is what lets blameitd re-run a recorded trace
// posted over HTTP. Use NewSim for the conventional live wiring.
func New(deps Deps, cfg Config) *Pipeline {
	if deps.World == nil || deps.Table == nil || deps.Source == nil || deps.Prober == nil {
		panic("pipeline: Deps.World, Table, Source, and Prober are all required")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.RunEvery < 1 {
		cfg.RunEvery = 1
	}
	if cfg.WarmupSampleEvery < 1 {
		cfg.WarmupSampleEvery = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	// A fallible prober (one implementing probe.ErrProber) is hardened
	// behind the retrying wrapper, so every consumer — baseliner, active
	// phase — gets retries and breaker protection. Infallible probers
	// (Engine, Replayer) pass through untouched.
	pr := deps.Prober
	if _, wrapped := pr.(*probe.RetryingProber); !wrapped {
		if _, fallible := pr.(probe.ErrProber); fallible {
			pr = probe.NewRetryingProber(pr, cfg.Retry)
		}
	}
	p := &Pipeline{
		World:     deps.World,
		Table:     deps.Table,
		Cfg:       cfg,
		Source:    deps.Source,
		Prober:    pr,
		Metrics:   reg,
		Learner:   core.NewLearner(deps.Table.Keys()),
		Durations: predict.NewDurationPredictor(3),
		Clients:   predict.NewClientPredictor(deps.Table.Keys()),
		Alerter:   alerting.NewAlerter(cfg.TopNAlerts),
		routes:    deps.Table.NewCursor(),
	}
	if m, ok := p.Prober.(interface{ SetMetrics(*metrics.Registry) }); ok {
		m.SetMetrics(reg)
	}
	if m, ok := p.Source.(interface{ SetMetrics(*metrics.Registry) }); ok {
		m.SetMetrics(reg)
	}
	p.quar = ingest.NewQuarantine(netmodel.PrefixID(len(deps.World.Prefixes)), len(deps.World.Clouds))
	p.quar.SetMetrics(reg)
	p.Alerter.SetMetrics(reg)
	p.mStageCollect = reg.Histogram("pipeline.stage.collect_ms", metrics.MSBuckets)
	p.mStageClassify = reg.Histogram("pipeline.stage.classify_ms", metrics.MSBuckets)
	p.mStageLocalize = reg.Histogram("pipeline.stage.localize_ms", metrics.MSBuckets)
	p.mStageActive = reg.Histogram("pipeline.stage.active_ms", metrics.MSBuckets)
	p.mStageAlert = reg.Histogram("pipeline.stage.alert_ms", metrics.MSBuckets)
	p.mJobMS = reg.Histogram("pipeline.job.total_ms", metrics.MSBuckets)
	p.mWindowQs = reg.Histogram("pipeline.window.quartets", metrics.SizeBuckets)
	p.mWindowBuckets = reg.Histogram("pipeline.window.buckets", []float64{1, 2, 3, 6, 12, 24, 48})
	p.mJobs = reg.Counter("pipeline.jobs.runs")
	p.mRelearns = reg.Counter("pipeline.relearn.events")
	p.mObsCollected = reg.Counter("pipeline.observations.collected")
	p.mBadQuartets = reg.Counter("pipeline.quartets.bad")
	// Seed the duration predictor with the long-tailed historical prior
	// (§2.3): production learns P(T|t) from months of fault history, which
	// a fresh simulation does not have yet.
	prior := rand.New(rand.NewSource(9001))
	for i := 0; i < 400; i++ {
		p.Durations.Record("", int(faults.SampleDuration(prior)))
	}
	p.Baseliner = probe.NewBaselinerWith(cfg.Background, p.Prober, p.World, p.Table)
	p.Baseliner.SetMetrics(reg)
	p.Budget = probe.NewBudget(cfg.BudgetPerCloudPerDay)
	p.Budget.SetMetrics(reg)
	p.Active = active.NewLocalizer(p.Prober, p.Baseliner, p.Budget, p.Durations, p.Clients)
	p.QuartetTracker = quartet.NewTracker()
	p.MiddleTracker = active.NewTrackerWithStep(p.Durations, cfg.RunEvery)
	return p
}

// NewSim assembles a pipeline over a live simulator (SimDeps): observations
// generated on demand, probes through the simulated traceroute engine.
func NewSim(s *sim.Simulator, cfg Config) *Pipeline {
	return New(SimDeps(s, cfg.ProbeNoiseMS), cfg)
}

// PathOf resolves a quartet's route from the BGP table.
func (p *Pipeline) PathOf(pid netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) netmodel.Path {
	return p.Table.PathAtForPrefix(c, pid, b)
}

// Warmup learns expected RTTs (and primes the client predictor) from the
// buckets in [from, to), sampling every WarmupSampleEvery'th bucket. Call
// it before Run; production learns over a trailing 14-day window.
func (p *Pipeline) Warmup(from, to netmodel.Bucket) error {
	return p.WarmupContext(context.Background(), from, to)
}

// WarmupContext is Warmup with cancellation.
func (p *Pipeline) WarmupContext(ctx context.Context, from, to netmodel.Bucket) error {
	if to < from {
		return fmt.Errorf("pipeline: inverted warmup window [%d, %d)", from, to)
	}
	for b := from; b < to; b += netmodel.Bucket(p.Cfg.WarmupSampleEvery) {
		if err := p.readBucket(ctx, b); err != nil {
			return err
		}
		p.routes.Seek(b)
		for _, o := range p.obsBuf {
			if o.Samples < quartet.MinSamples {
				continue
			}
			_, id := p.routes.RouteForPrefix(o.Cloud, o.Prefix)
			p.Learner.AddObservation(o.Cloud, id, o.Device, o.MeanRTT)
			p.Clients.Record(id, o.Bucket, o.Clients)
		}
	}
	p.Thresholds = p.Learner.Snapshot()
	p.rebuildPassive()
	return nil
}

// SetThresholds installs externally learned thresholds (tests, ablations).
func (p *Pipeline) SetThresholds(th *core.Thresholds) {
	p.Thresholds = th
	p.rebuildPassive()
}

func (p *Pipeline) rebuildPassive() {
	p.Passive = core.NewLocalizer(p.Cfg.Core, p.World.CloudASN(), p.PathOf, p.Thresholds)
	p.Passive.SetMetrics(p.Metrics)
	if p.keyFunc != nil {
		p.Passive.SetMiddleKeyFunc(p.keyFunc)
	}
}

// SetMiddleKeyFunc overrides the passive phase's middle grouping (the
// ⟨AS, Metro⟩ baseline).
func (p *Pipeline) SetMiddleKeyFunc(f core.MiddleKeyFunc) {
	p.keyFunc = f
	if p.Passive == nil {
		p.rebuildPassive()
	}
	p.Passive.SetMiddleKeyFunc(f)
}

// Step advances the pipeline by one bucket: collects the bucket's passive
// observations, classifies quartets, advances the persistence trackers,
// runs background probing, and — on job-cadence boundaries — runs
// Algorithm 1 plus the active phase and returns a Report. Between job runs
// it returns (nil, nil).
func (p *Pipeline) Step(b netmodel.Bucket) (*Report, error) {
	return p.StepContext(context.Background(), b)
}

// StepContext is Step with cancellation: the observation read and the
// job's parallel fan-out both observe ctx.
func (p *Pipeline) StepContext(ctx context.Context, b netmodel.Bucket) (*Report, error) {
	if p.Passive == nil {
		p.rebuildPassive()
	}
	if !p.windowPrimed {
		p.windowFrom = b
		p.windowPrimed = true
	}
	collectStart := time.Now()
	if err := p.readBucket(ctx, b); err != nil {
		return nil, err
	}
	classifyStart := time.Now()
	p.mStageCollect.Observe(msSince(collectStart, classifyStart))
	p.mObsCollected.Add(int64(len(p.obsBuf)))
	feedLearner := int(b)%p.Cfg.WarmupSampleEvery == 0
	run := p.windowRunFor(b)
	p.routes.Seek(b)
	var badKeys []quartet.Key
	for _, o := range p.obsBuf {
		q := quartet.Classify(o, p.World.TargetFor(o.Prefix, o.Cloud))
		run.qs = append(run.qs, q)
		if !q.Enough {
			run.routes = append(run.routes, core.Route{})
			continue
		}
		if q.Bad {
			badKeys = append(badKeys, quartet.KeyOf(o))
		}
		// The quartet's route is resolved here, once: the cursor hands out
		// the table's path and its key's ID, the job's Algorithm 1 run reads
		// both from the window — the path only for bad quartets.
		path, id := p.routes.RouteForPrefix(o.Cloud, o.Prefix)
		// Feed the client predictor continuously with normal traffic,
		// and keep the expected-RTT learner current (subsampled). Both
		// go by the true path key, whatever the middle grouping.
		p.Clients.Record(id, b, o.Clients)
		if feedLearner {
			p.Learner.AddObservation(o.Cloud, id, o.Device, o.MeanRTT)
		}
		if p.keyFunc != nil {
			id = p.coarse.Intern(p.keyFunc(*path, o.Prefix))
		}
		run.routes = append(run.routes, core.Route{Path: path, ID: id})
	}
	p.mStageClassify.Observe(msSince(classifyStart, time.Now()))
	p.mBadQuartets.Add(int64(len(badKeys)))
	// Refresh the learned medians at day boundaries, as the production
	// trailing-window job does.
	if day := b.Day(); day > p.lastRelearnDay {
		p.lastRelearnDay = day
		p.Thresholds = p.Learner.Snapshot()
		p.rebuildPassive()
		p.mRelearns.Inc()
	}
	p.QuartetTracker.Advance(b, badKeys)
	// Background baselines advance every bucket.
	p.Baseliner.Advance(b)

	if (int(b)+1)%p.Cfg.RunEvery != 0 {
		return nil, nil
	}
	return p.runJob(ctx, b)
}

// windowRunFor returns the window run accumulating bucket b's quartets,
// extending the window with a recycled (or fresh) run when b is new. The
// pointer stays valid until the window next grows, which cannot happen
// before the caller finishes the bucket.
func (p *Pipeline) windowRunFor(b netmodel.Bucket) *windowRun {
	if n := len(p.window); n > 0 && p.window[n-1].b == b {
		return &p.window[n-1]
	}
	if n := len(p.window); n < cap(p.window) {
		// Recycle the parked run's backing arrays.
		p.window = p.window[:n+1]
		r := &p.window[n]
		r.b = b
		r.qs = r.qs[:0]
		r.routes = r.routes[:0]
		return r
	}
	p.window = append(p.window, windowRun{b: b})
	return &p.window[len(p.window)-1]
}

// msSince returns the wall time between two instants in milliseconds.
func msSince(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}

// readBucket fills p.obsBuf with bucket b's validated observation stream,
// which Step and Warmup classify as it stands.
//
// The stream passes through the quarantine: late, corrupt, and duplicate
// records — chaos-injected, or two edge partials claiming one quartet — are
// diverted there, never silently merged. Transient read errors are retried
// up to Cfg.SourceRetries times; when retries run out the bucket is declared
// dark — counted, records lost, run continues. Fatal errors (cancellation,
// strict decode failures) propagate.
func (p *Pipeline) readBucket(ctx context.Context, b netmodel.Bucket) error {
	for attempt := 0; ; attempt++ {
		var err error
		p.obsBuf, err = p.Source.ObservationsAt(ctx, b, p.obsBuf[:0])
		if err == nil {
			p.obsBuf = p.quar.Filter(b, p.obsBuf)
			return nil
		}
		if ctx.Err() != nil || !ingest.IsTransient(err) {
			return err
		}
		if attempt >= p.Cfg.SourceRetries {
			p.darkBuckets++
			if p.mDarkBuckets == nil {
				p.mDarkBuckets = p.Metrics.Counter("pipeline.source.dark_buckets")
			}
			p.mDarkBuckets.Inc()
			p.obsBuf = p.obsBuf[:0]
			return nil
		}
		p.srcRetries++
		if p.mSourceRetries == nil {
			p.mSourceRetries = p.Metrics.Counter("pipeline.source.retries")
		}
		p.mSourceRetries.Inc()
	}
}

// Quarantine exposes the ingestion quarantine for inspection (counts,
// recent rejects). Never nil.
func (p *Pipeline) Quarantine() *ingest.Quarantine { return p.quar }

// SourceFaults reports the cumulative transient-read retries and dark
// (abandoned) buckets since the pipeline started.
func (p *Pipeline) SourceFaults() (retries, darkBuckets int64) {
	return p.srcRetries, p.darkBuckets
}

// healthInterval grades the data plane over the job interval ending at
// bucket b (spanning `buckets` buckets) and advances the interval
// baselines.
func (p *Pipeline) healthInterval(b netmodel.Bucket, buckets int) Health {
	var h Health
	qt := p.quar.Total()
	h.Quarantined, p.lastQuarTotal = qt-p.lastQuarTotal, qt
	h.SourceRetries, p.lastSrcRetries = p.srcRetries-p.lastSrcRetries, p.srcRetries
	h.DarkBuckets, p.lastDark = p.darkBuckets-p.lastDark, p.darkBuckets
	switch {
	case buckets > 0 && h.DarkBuckets >= int64(buckets):
		h.Source = Dark
	case h.DarkBuckets > 0 || h.Quarantined > 0 || h.SourceRetries > 0:
		h.Source = Degraded
	}
	if rp, ok := p.Prober.(*probe.RetryingProber); ok {
		st := rp.Stats()
		h.ProbeFailures = st.Failures - p.lastProbeStats.Failures
		h.ProbeExhausted = st.Exhausted - p.lastProbeStats.Exhausted
		p.lastProbeStats = st
		h.OpenCircuits = rp.OpenCircuits(b)
		switch {
		case h.OpenCircuits > 0:
			h.Prober = Dark
		case h.ProbeFailures > 0:
			h.Prober = Degraded
		}
	}
	if p.mHealthSource == nil {
		p.mHealthSource = p.Metrics.Gauge("pipeline.health.source")
		p.mHealthProber = p.Metrics.Gauge("pipeline.health.prober")
	}
	p.mHealthSource.Set(int64(h.Source))
	p.mHealthProber.Set(int64(h.Prober))
	return h
}

// runJob executes the Algorithm 1 job over the accumulated window.
func (p *Pipeline) runJob(ctx context.Context, b netmodel.Bucket) (*Report, error) {
	jobStart := time.Now()
	from := b - netmodel.Bucket(p.Cfg.RunEvery) + 1
	if p.windowPrimed && p.windowFrom > from {
		// The run started on a bucket unaligned with the job cadence (or
		// buckets were skipped): report only the buckets actually stepped.
		from = p.windowFrom
	}
	total := 0
	for i := range p.window {
		total += len(p.window[i].qs)
	}
	p.mWindowQs.Observe(float64(total))
	rep := &Report{From: from, To: b}
	// Localize each bucket of the window separately so aggregates stay
	// time-consistent. Step already grouped the window into per-bucket runs
	// (in increasing bucket order), so the job consumes them directly — the
	// old per-job rescan of every quartet into a fresh map is gone.
	//
	// The per-bucket calls share only read-only state (localizer config,
	// thresholds), so the window's buckets run concurrently; per-run result
	// slots are merged in bucket order to keep reports deterministic.
	nb := int(rep.To-rep.From) + 1
	p.mWindowBuckets.Observe(float64(nb))
	localizeStart := time.Now()
	perRun := make([][]core.Result, len(p.window))
	err := parallel.ForEachCtx(ctx, len(p.window), parallel.Resolve(p.Cfg.Workers), func(i int) {
		if run := &p.window[i]; len(run.qs) > 0 {
			perRun[i] = p.Passive.LocalizeRoutes(run.qs, run.routes)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, rs := range perRun {
		rep.Results = append(rep.Results, rs...)
	}
	// Park the runs (keeping their backing arrays) for the next window.
	p.window = p.window[:0]
	p.windowPrimed = false
	activeStart := time.Now()
	p.mStageLocalize.Observe(msSince(localizeStart, activeStart))

	// Track middle-issue persistence at job granularity and run the active
	// phase for the window's middle verdicts.
	badMiddles := active.MiddleKeysOfBy(rep.Results, p.keyFunc)
	p.MiddleTracker.Advance(b, badMiddles)
	// Pause background refreshes on paths with an ongoing middle issue so
	// the pre-fault baseline survives for the traceroute comparison. The
	// true path keys are used (the grouping override may be coarser).
	p.Baseliner.Suppress(active.MiddleKeysOf(rep.Results), b+netmodel.Bucket(2*p.Cfg.RunEvery))
	issues := active.GroupIssuesBy(rep.Results, b, p.keyFunc)
	rep.Verdicts = p.Active.ProcessIssuesContext(ctx, b, issues, p.MiddleTracker)
	alertStart := time.Now()
	p.mStageActive.Observe(msSince(activeStart, alertStart))
	rep.Tickets = p.Alerter.Generate(b, rep.Results, rep.Verdicts)
	end := time.Now()
	p.mStageAlert.Observe(msSince(alertStart, end))
	p.mJobMS.Observe(msSince(jobStart, end))
	p.mJobs.Inc()

	rep.Health = p.healthInterval(b, nb)
	return rep, nil
}

// Run drives the pipeline over [from, to), invoking cb for every completed
// job run. cb may be nil.
func (p *Pipeline) Run(from, to netmodel.Bucket, cb func(*Report)) error {
	return p.RunContext(context.Background(), from, to, cb)
}

// RunContext is Run with cancellation: it stops between buckets as soon as
// ctx is done and returns the context's error. A cancelled run leaves the
// pipeline's learned state consistent up to the last completed bucket.
func (p *Pipeline) RunContext(ctx context.Context, from, to netmodel.Bucket, cb func(*Report)) error {
	if to < from {
		return fmt.Errorf("pipeline: inverted run window [%d, %d)", from, to)
	}
	for b := from; b < to; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rep, err := p.StepContext(ctx, b)
		if err != nil {
			return err
		}
		if rep != nil && cb != nil {
			cb(rep)
		}
	}
	return nil
}

// FinalizeContext flushes a partially accumulated window: when a run stops
// off the job cadence (a daemon draining on SIGTERM mid-window), the
// buckets stepped since the last job run have been classified but never
// localized. It runs the Algorithm 1 job over them and returns the final
// report, or (nil, nil) when the window is empty — a run that stopped on a
// cadence boundary has nothing to flush, and finalizing it emits no
// fabricated report. After a Finalize the pipeline can keep stepping; the
// next job window starts at the next stepped bucket.
func (p *Pipeline) FinalizeContext(ctx context.Context) (*Report, error) {
	if len(p.window) == 0 {
		return nil, nil
	}
	rep, err := p.runJob(ctx, p.window[len(p.window)-1].b)
	if rep != nil {
		rep.Final = true
	}
	return rep, err
}

// Flush closes open incident runs at the end of a simulation.
func (p *Pipeline) Flush() []quartet.Incident {
	p.MiddleTracker.Flush()
	return p.QuartetTracker.Flush()
}
