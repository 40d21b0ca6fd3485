// Package predict implements the two estimators behind BlameIt's
// client-time-product prioritization (§5.3): the duration predictor, which
// computes the expected remaining duration of an ongoing issue from the
// empirical conditional survival P(T|t) of historical fault durations, and
// the client predictor, which forecasts how many clients will traverse a
// middle segment from the same time window on previous days.
package predict

import (
	"math"
	"slices"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

// maxDuration caps tracked incident durations, in 5-minute buckets
// (400 buckets = 33 hours, far beyond the long tail of §2.3).
const maxDuration = 400

// survival is a duration histogram supporting conditional-survival
// queries.
type survival struct {
	counts [maxDuration + 1]int // counts[d] = incidents of duration d
	total  int
}

func (s *survival) record(d int) {
	if d < 1 {
		d = 1
	}
	if d > maxDuration {
		d = maxDuration
	}
	s.counts[d]++
	s.total++
}

// atLeast returns the number of incidents with duration >= t.
func (s *survival) atLeast(t int) int {
	if t < 1 {
		t = 1
	}
	n := 0
	for d := t; d <= maxDuration; d++ {
		n += s.counts[d]
	}
	return n
}

// expectedRemaining computes E[T | lasted t] = Σ_T P(D >= t+T | D >= t),
// the §5.3 formula with T in 5-minute increments.
func (s *survival) expectedRemaining(t int) (float64, bool) {
	den := s.atLeast(t)
	if den == 0 {
		return 0, false
	}
	// Σ_{T>=1} P(D >= t+T) / P(D >= t); accumulate the numerator tail sum.
	var sum float64
	run := 0
	for d := maxDuration; d >= t+1; d-- {
		run += s.counts[d]
		// run = number of incidents with duration >= d = survivors at T=d-t.
		sum += float64(run)
	}
	return sum / float64(den), true
}

// DurationPredictor learns P(T|t) per BGP path with a global fallback for
// paths with sparse history. The paper notes precise estimates are not
// needed: separating the few long-lived problems from the many short-lived
// ones suffices.
type DurationPredictor struct {
	global    survival
	perKey    map[netmodel.MiddleKey]*survival
	minPerKey int
}

// NewDurationPredictor creates a predictor; paths with fewer than
// minPerKey recorded incidents fall back to the global distribution.
func NewDurationPredictor(minPerKey int) *DurationPredictor {
	if minPerKey < 1 {
		minPerKey = 1
	}
	return &DurationPredictor{perKey: make(map[netmodel.MiddleKey]*survival), minPerKey: minPerKey}
}

// Record adds one completed incident of the given duration (in buckets) on
// a path.
func (p *DurationPredictor) Record(k netmodel.MiddleKey, durationBuckets int) {
	p.global.record(durationBuckets)
	s := p.perKey[k]
	if s == nil {
		s = &survival{}
		p.perKey[k] = s
	}
	s.record(durationBuckets)
}

// Incidents returns the total recorded incidents.
func (p *DurationPredictor) Incidents() int { return p.global.total }

// ExpectedRemaining predicts how many more buckets an issue on path k will
// last, given it has lasted `lasted` buckets so far. With no usable
// history at all it returns 1 (one more bucket).
func (p *DurationPredictor) ExpectedRemaining(k netmodel.MiddleKey, lasted int) float64 {
	if s, ok := p.perKey[k]; ok && s.total >= p.minPerKey {
		if v, ok := s.expectedRemaining(lasted); ok {
			return v
		}
	}
	if v, ok := p.global.expectedRemaining(lasted); ok {
		return v
	}
	return 1
}

// ProbLastsAtLeast returns the global P(D >= t).
func (p *DurationPredictor) ProbLastsAtLeast(t int) float64 {
	if p.global.total == 0 {
		return 0
	}
	return float64(p.global.atLeast(t)) / float64(p.global.total)
}

// historyDays is the look-back window of the client predictor; the paper
// found the same 5-minute window of the previous 3 days beats recent
// history.
const historyDays = 3

// clientHist is a per-path ring of the last few days' per-bucket client
// counts.
type clientHist struct {
	days   [historyDays][netmodel.BucketsPerDay]float32
	dayTag [historyDays]int
	// running fallback average
	sum float64
	n   int
}

// ClientPredictor forecasts the clients connecting through a middle
// segment in a 5-minute window as the average of the same window over the
// previous days. Paths are recorded by their KeyID in the key space the
// predictor was made with; a history (3.4 KB) is allocated on a path's
// first record, so the slice holds pointers, not histories.
type ClientPredictor struct {
	keys *netmodel.KeySpace
	hist []*clientHist // by KeyID
}

// NewClientPredictor creates an empty client predictor over a key space —
// the BGP table's, whose IDs the pipeline's routes carry.
func NewClientPredictor(keys *netmodel.KeySpace) *ClientPredictor {
	return &ClientPredictor{keys: keys, hist: make([]*clientHist, keys.Len())}
}

// Record adds the observed client count of one bucket on a path.
func (p *ClientPredictor) Record(id netmodel.KeyID, b netmodel.Bucket, clients int) {
	if int(id) >= len(p.hist) {
		p.hist = append(p.hist, make([]*clientHist, int(id)+1-len(p.hist))...)
	}
	h := p.hist[id]
	if h == nil {
		h = &clientHist{dayTag: [historyDays]int{-1, -1, -1}}
		p.hist[id] = h
	}
	day := b.Day()
	slot := day % historyDays
	if h.dayTag[slot] != day {
		h.days[slot] = [netmodel.BucketsPerDay]float32{}
		h.dayTag[slot] = day
	}
	h.days[slot][b.OfDay()] += float32(clients)
	h.sum += float64(clients)
	h.n++
}

// Predict estimates the clients that will connect through path k in the
// 5-minute window of bucket b: the average over the same window of the
// previous days, falling back to the path's overall per-bucket mean. A key
// outside the predictor's key space has no history.
func (p *ClientPredictor) Predict(k netmodel.MiddleKey, b netmodel.Bucket) float64 {
	id, ok := p.keys.ID(k)
	if !ok || int(id) >= len(p.hist) || p.hist[id] == nil {
		return 0
	}
	h := p.hist[id]
	day := b.Day()
	of := b.OfDay()
	var sum float64
	var n int
	for back := 1; back <= historyDays; back++ {
		d := day - back
		if d < 0 {
			break
		}
		slot := d % historyDays
		if h.dayTag[slot] == d {
			sum += float64(h.days[slot][of])
			n++
		}
	}
	if n > 0 {
		return sum / float64(n)
	}
	if h.n > 0 {
		return h.sum / float64(h.n)
	}
	return 0
}

// appendSurvival encodes a histogram: its non-zero counts sparsely. The
// total is their sum, so it is not encoded.
func appendSurvival(e *ckpt.Encoder, s *survival) {
	n := 0
	for _, c := range s.counts {
		if c != 0 {
			n++
		}
	}
	e.Len(n)
	prev := -1
	for d, c := range s.counts {
		if c != 0 {
			e.Gap(prev, d)
			prev = d
			e.Int(c)
		}
	}
}

func restoreSurvival(d *ckpt.Decoder, s *survival) {
	*s = survival{}
	prev := -1
	for n := d.Bound(maxDuration + 1); n > 0 && d.Err() == nil; n-- {
		i := d.Gap(prev, maxDuration+1)
		prev = i
		c := d.Range(1, math.MaxInt32)
		s.counts[i] = c
		s.total += c
	}
}

// AppendCheckpoint encodes the predictor's histograms: the global one,
// then each path's, by key in sorted order.
func (p *DurationPredictor) AppendCheckpoint(e *ckpt.Encoder) {
	appendSurvival(e, &p.global)
	keys := make([]netmodel.MiddleKey, 0, len(p.perKey))
	for k := range p.perKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.Len(len(keys))
	for _, k := range keys {
		e.String(string(k))
		appendSurvival(e, p.perKey[k])
	}
}

// RestoreCheckpoint replaces the predictor's histograms with what
// AppendCheckpoint wrote.
func (p *DurationPredictor) RestoreCheckpoint(d *ckpt.Decoder) {
	restoreSurvival(d, &p.global)
	p.perKey = make(map[netmodel.MiddleKey]*survival)
	var prev string
	for n := d.Len(2); n > 0 && d.Err() == nil; n-- {
		k := d.String()
		if len(p.perKey) > 0 && k <= prev {
			d.Failf("path %q out of order", k)
			return
		}
		prev = k
		s := &survival{}
		restoreSurvival(d, s)
		p.perKey[netmodel.MiddleKey(k)] = s
	}
}

// AppendCheckpoint encodes the client histories: the slice's length, then
// each allocated history sparsely — its day tags, each tagged day's
// counts, and the running sum and count behind the fallback average.
func (p *ClientPredictor) AppendCheckpoint(e *ckpt.Encoder) {
	e.Len(len(p.hist))
	n := 0
	for _, h := range p.hist {
		if h != nil {
			n++
		}
	}
	e.Len(n)
	prev := -1
	for i, h := range p.hist {
		if h == nil {
			continue
		}
		e.Gap(prev, i)
		prev = i
		for s, tag := range h.dayTag {
			e.Int(tag)
			if tag != -1 {
				e.F32s(h.days[s][:])
			}
		}
		e.F64(h.sum)
		e.Varint(int64(h.n))
	}
}

// RestoreCheckpoint replaces the client histories with what
// AppendCheckpoint wrote; the slice spans at most the key space.
func (p *ClientPredictor) RestoreCheckpoint(d *ckpt.Decoder) {
	p.hist = make([]*clientHist, d.Bound(p.keys.Len()))
	prev := -1
	for n := d.Bound(len(p.hist)); n > 0 && d.Err() == nil; n-- {
		i := d.Gap(prev, len(p.hist))
		prev = i
		h := &clientHist{}
		for s := range h.dayTag {
			h.dayTag[s] = d.Range(-1, math.MaxInt32)
			if h.dayTag[s] != -1 {
				d.F32s(h.days[s][:])
			}
		}
		h.sum = d.F64()
		h.n = int(d.Varint())
		p.hist[i] = h
	}
}
