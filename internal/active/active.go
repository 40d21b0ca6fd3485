// Package active implements BlameIt's active phase (§5): it groups the
// passive phase's middle-segment verdicts into per-path issues, estimates
// each issue's client-time product (expected remaining duration × expected
// affected clients), and issues prioritized on-demand traceroutes within a
// per-location budget, comparing them against background baselines to name
// the culprit AS.
package active

import (
	"context"
	"sort"

	"blameit/internal/core"
	"blameit/internal/netmodel"
	"blameit/internal/predict"
	"blameit/internal/probe"
)

// Issue is one ongoing middle-segment problem: the set of bad quartets
// sharing an AS-level BGP path from one cloud location.
type Issue struct {
	Key    netmodel.MiddleKey
	Path   netmodel.Path
	Cloud  netmodel.CloudID
	Bucket netmodel.Bucket
	// Prefixes are the affected client /24s observed this window.
	Prefixes []netmodel.PrefixID
	// ObservedClients is the number of clients in the affected quartets.
	ObservedClients int
	// Lasted is how many consecutive buckets the issue has been active.
	Lasted int
	// ClientTime is the estimated client-time product used for ranking.
	ClientTime float64
}

// GroupIssues groups middle-blamed verdicts of one window by BGP path.
func GroupIssues(results []core.Result, b netmodel.Bucket) []Issue {
	return GroupIssuesBy(results, b, nil)
}

// GroupIssuesBy groups middle-blamed verdicts using a custom middle-key
// function (nil = the BGP path key). A system that groups clients by
// ⟨AS, Metro⟩ also probes per that grouping, which is exactly what the
// Fig. 11 baseline needs to reproduce.
func GroupIssuesBy(results []core.Result, b netmodel.Bucket, keyOf core.MiddleKeyFunc) []Issue {
	byKey := make(map[netmodel.MiddleKey]*Issue)
	order := make([]netmodel.MiddleKey, 0)
	for _, r := range results {
		if r.Blame != core.BlameMiddle {
			continue
		}
		mk := r.Path.Key()
		if keyOf != nil {
			mk = keyOf(r.Path, r.Q.Obs.Prefix)
		}
		is, ok := byKey[mk]
		if !ok {
			is = &Issue{Key: mk, Path: r.Path.Clone(), Cloud: r.Path.Cloud, Bucket: b}
			byKey[mk] = is
			order = append(order, mk)
		}
		is.Prefixes = append(is.Prefixes, r.Q.Obs.Prefix)
		is.ObservedClients += r.Q.Obs.Clients
	}
	out := make([]Issue, 0, len(byKey))
	for _, mk := range order {
		out = append(out, *byKey[mk])
	}
	return out
}

// Tracker measures how long each middle issue has been ongoing and feeds
// completed issue durations into the duration predictor. It is advanced at
// the Algorithm 1 job cadence; `step` converts advances into buckets.
type Tracker struct {
	open   map[netmodel.MiddleKey]int // consecutive advances active
	last   netmodel.Bucket
	primed bool
	step   int // buckets between advances (job cadence)
	dur    *predict.DurationPredictor
}

// NewTracker creates a tracker advanced every bucket that records
// completed durations into the given predictor (which may be nil).
func NewTracker(dur *predict.DurationPredictor) *Tracker {
	return NewTrackerWithStep(dur, 1)
}

// NewTrackerWithStep creates a tracker advanced every `step` buckets (the
// job cadence; 3 in production for the 15-minute job).
func NewTrackerWithStep(dur *predict.DurationPredictor, step int) *Tracker {
	if step < 1 {
		step = 1
	}
	return &Tracker{open: make(map[netmodel.MiddleKey]int), dur: dur, step: step}
}

// Advance records which middle keys are active at bucket b, closing runs
// that ended and training the duration predictor with them. Advances more
// than one step apart terminate all open runs.
func (t *Tracker) Advance(b netmodel.Bucket, active []netmodel.MiddleKey) {
	if t.primed && b <= t.last {
		panic("active: Tracker.Advance called with non-increasing bucket")
	}
	gap := t.primed && b > t.last+netmodel.Bucket(t.step)
	set := make(map[netmodel.MiddleKey]bool, len(active))
	for _, k := range active {
		set[k] = true
	}
	for k, run := range t.open {
		if gap || !set[k] {
			if t.dur != nil {
				t.dur.Record(k, run*t.step)
			}
			delete(t.open, k)
		}
	}
	for _, k := range active {
		t.open[k]++
	}
	t.last = b
	t.primed = true
}

// Lasted returns the current run length of a middle issue, in buckets
// (including the current advance).
func (t *Tracker) Lasted(k netmodel.MiddleKey) int { return t.open[k] * t.step }

// Flush closes all open runs into the predictor (end of simulation).
func (t *Tracker) Flush() {
	for k, run := range t.open {
		if t.dur != nil {
			t.dur.Record(k, run*t.step)
		}
		delete(t.open, k)
	}
}

// Verdict is the active phase's AS-level localization of one issue.
type Verdict struct {
	Issue Issue
	// Probed is false when the budget was exhausted before this issue.
	Probed bool
	// OK is false when the probe could not be compared (missing or stale
	// baseline with a different AS path, or a failed/truncated probe).
	OK bool
	// Degraded is true when the probe infrastructure itself failed — every
	// retry exhausted or the location's circuit breaker open — so no
	// comparison was even attempted. The issue stays unlocalized (an
	// explicit insufficient-style outcome, mirroring Algorithm 1's refusal
	// to guess) rather than being blamed from stale data. Omitted from
	// JSON when false so fault-free reports are byte-identical to before.
	Degraded   bool `json:",omitempty"`
	AS         netmodel.ASN
	Segment    netmodel.Segment
	IncreaseMS float64
}

// Localizer runs the active phase. Probes are issued through the Prober
// interface, so the same localization logic runs against the live
// traceroute engine or a recorded-probe replay.
type Localizer struct {
	Prober    probe.Prober
	Baseliner *probe.Baseliner
	Budget    *probe.Budget
	Durations *predict.DurationPredictor
	Clients   *predict.ClientPredictor
}

// NewLocalizer assembles the active phase from its parts.
func NewLocalizer(pr probe.Prober, bg *probe.Baseliner, bu *probe.Budget, dp *predict.DurationPredictor, cp *predict.ClientPredictor) *Localizer {
	return &Localizer{Prober: pr, Baseliner: bg, Budget: bu, Durations: dp, Clients: cp}
}

// Estimate fills an issue's client-time product from the two predictors:
// expected remaining duration (buckets) × predicted clients per bucket.
func (l *Localizer) Estimate(is *Issue, lasted int) {
	is.Lasted = lasted
	remaining := l.Durations.ExpectedRemaining(is.Key, lasted)
	clients := l.Clients.Predict(is.Key, is.Bucket)
	if clients == 0 {
		// No history for the path: use the currently observed clients.
		clients = float64(is.ObservedClients)
	}
	is.ClientTime = remaining * clients
}

// Prioritize sorts issues by descending client-time product (§5.3),
// breaking ties by observed clients then key for determinism.
func Prioritize(issues []Issue) {
	sort.Slice(issues, func(i, j int) bool {
		a, b := issues[i], issues[j]
		if a.ClientTime != b.ClientTime {
			return a.ClientTime > b.ClientTime
		}
		if a.ObservedClients != b.ObservedClients {
			return a.ObservedClients > b.ObservedClients
		}
		return a.Key < b.Key
	})
}

// Process runs the full active phase for one window: group, estimate,
// prioritize, and probe within budget. The tracker must already have been
// advanced to bucket b.
func (l *Localizer) Process(b netmodel.Bucket, results []core.Result, tr *Tracker) []Verdict {
	return l.ProcessIssues(b, GroupIssues(results, b), tr)
}

// ProcessIssues runs the active phase over pre-grouped issues.
func (l *Localizer) ProcessIssues(b netmodel.Bucket, issues []Issue, tr *Tracker) []Verdict {
	return l.ProcessIssuesContext(context.Background(), b, issues, tr)
}

// ProcessIssuesContext is ProcessIssues with cancellation, threaded into
// fallible probers (a live traceroute blocks on the network; ctx bounds
// it). A probe that fails outright — retries exhausted, circuit open —
// yields a Degraded verdict instead of a localization: the §5.2
// comparison is only ever run against measurements that actually
// completed.
func (l *Localizer) ProcessIssuesContext(ctx context.Context, b netmodel.Bucket, issues []Issue, tr *Tracker) []Verdict {
	for i := range issues {
		l.Estimate(&issues[i], tr.Lasted(issues[i].Key))
	}
	Prioritize(issues)
	ep, fallible := l.Prober.(probe.ErrProber)
	verdicts := make([]Verdict, 0, len(issues))
	for _, is := range issues {
		v := Verdict{Issue: is}
		if l.Budget.TryTakeForIssue(is.Path, b) {
			v.Probed = true
			// One traceroute per middle issue, to a representative client.
			target := is.Prefixes[0]
			var now probe.Traceroute
			if fallible {
				var perr error
				now, perr = ep.TracerouteErr(ctx, is.Cloud, target, b, probe.OnDemand)
				if perr != nil {
					v.Degraded = true
					verdicts = append(verdicts, v)
					continue
				}
			} else {
				now = l.Prober.Traceroute(is.Cloud, target, b, probe.OnDemand)
			}
			// The baseline is looked up by the path the probe actually
			// took, and must predate the issue's start — comparing against
			// a measurement taken during the incident would hide it. When
			// the issue grouping is coarser than a path (the <AS,Metro>
			// baseline) the representative may not even traverse the
			// faulty AS.
			cutoff := b - netmodel.Bucket(is.Lasted)
			if baseline, ok := l.Baseliner.BaselineBefore(now.Path.Key(), cutoff); ok {
				res := probe.Compare(now, baseline)
				v.OK = res.OK
				v.AS = res.AS
				v.Segment = res.Segment
				v.IncreaseMS = res.IncreaseMS
			}
		}
		verdicts = append(verdicts, v)
	}
	return verdicts
}

// MiddleKeysOf extracts the distinct middle keys of a window's
// middle-blamed verdicts, for feeding the tracker.
func MiddleKeysOf(results []core.Result) []netmodel.MiddleKey {
	return MiddleKeysOfBy(results, nil)
}

// MiddleKeysOfBy is MiddleKeysOf under a custom middle-key function.
func MiddleKeysOfBy(results []core.Result, keyOf core.MiddleKeyFunc) []netmodel.MiddleKey {
	seen := make(map[netmodel.MiddleKey]bool)
	var out []netmodel.MiddleKey
	for _, r := range results {
		if r.Blame != core.BlameMiddle {
			continue
		}
		mk := r.Path.Key()
		if keyOf != nil {
			mk = keyOf(r.Path, r.Q.Obs.Prefix)
		}
		if !seen[mk] {
			seen[mk] = true
			out = append(out, mk)
		}
	}
	return out
}
