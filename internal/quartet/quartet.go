// Package quartet implements the paper's unit of passive analysis: the
// "quartet" ⟨client /24, cloud location, device class, 5-minute bucket⟩
// (§2.1). It classifies quartets as good or bad against region-specific
// RTT targets, enforces the minimum-sample gate, and tracks the
// persistence of badness across consecutive buckets (§2.3).
package quartet

import (
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// MinSamples is the minimum RTT sample count the paper requires before a
// quartet's average is trusted.
const MinSamples = 10

// Key identifies the spatial part of a quartet: the tuple whose badness is
// tracked across time buckets.
type Key struct {
	Prefix netmodel.PrefixID
	Cloud  netmodel.CloudID
	Device netmodel.DeviceClass
}

// KeyOf extracts the tracking key of an observation.
func KeyOf(o trace.Observation) Key {
	return Key{Prefix: o.Prefix, Cloud: o.Cloud, Device: o.Device}
}

// Quartet is a classified observation.
type Quartet struct {
	Obs trace.Observation
	// Target is the badness threshold that applied (region- and
	// device-specific).
	Target float64
	// Enough reports whether the quartet met the MinSamples gate.
	Enough bool
	// Bad reports whether the average RTT breached the target (only
	// meaningful when Enough).
	Bad bool
}

// Classify applies the badness test to one observation. A mean RTT exactly
// at the target counts as bad — the >= convention every threshold
// comparison in the system follows (core.Localize applies the same
// operator to its aggregate-vs-expected-RTT tests).
func Classify(o trace.Observation, target float64) Quartet {
	q := Quartet{Obs: o, Target: target}
	q.Enough = o.Samples >= MinSamples
	if q.Enough {
		q.Bad = o.MeanRTT >= target
	}
	return q
}

// Incident is a maximal run of consecutive bad buckets for one key.
type Incident struct {
	Key   Key
	Start netmodel.Bucket
	// Buckets is the run length in 5-minute buckets.
	Buckets int
}

// End returns the first bucket after the incident.
func (i Incident) End() netmodel.Bucket { return i.Start + netmodel.Bucket(i.Buckets) }

// Tracker measures badness persistence: how many consecutive 5-minute
// buckets each ⟨prefix, cloud, device⟩ tuple stays bad (§2.3). Feed it one
// bucket at a time via Advance, which returns the runs each bucket ends;
// the tracker keeps only the open ones.
type Tracker struct {
	open   map[Key]Incident
	last   netmodel.Bucket
	primed bool
}

// NewTracker creates an empty persistence tracker.
func NewTracker() *Tracker {
	return &Tracker{open: make(map[Key]Incident)}
}

// Advance records the set of bad keys of bucket b and returns the
// incidents it closed, in no particular order. Buckets must be fed in
// strictly increasing order; skipped buckets terminate all open runs.
func (t *Tracker) Advance(b netmodel.Bucket, bad []Key) (closed []Incident) {
	if t.primed && b <= t.last {
		panic("quartet: Tracker.Advance called with non-increasing bucket")
	}
	gap := t.primed && b != t.last+1
	badSet := make(map[Key]bool, len(bad))
	for _, k := range bad {
		badSet[k] = true
	}
	// Close runs that did not continue.
	for k, inc := range t.open {
		if gap || !badSet[k] {
			closed = append(closed, inc)
			delete(t.open, k)
		}
	}
	// Extend or open runs.
	for _, k := range bad {
		if inc, ok := t.open[k]; ok {
			inc.Buckets++
			t.open[k] = inc
		} else {
			t.open[k] = Incident{Key: k, Start: b, Buckets: 1}
		}
	}
	t.last = b
	t.primed = true
	return closed
}

// Flush closes all open runs (end of simulation) and returns them.
func (t *Tracker) Flush() []Incident {
	closed := make([]Incident, 0, len(t.open))
	for k, inc := range t.open {
		closed = append(closed, inc)
		delete(t.open, k)
	}
	return closed
}

// OpenRun returns the length (in buckets) of the key's current bad run,
// zero if the key is currently good. This feeds the duration predictor's
// "has lasted t so far" input.
func (t *Tracker) OpenRun(k Key) int {
	return t.open[k].Buckets
}
