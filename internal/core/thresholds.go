package core

import (
	"blameit/internal/netmodel"
	"blameit/internal/stats"
)

// Thresholds holds the learned expected RTTs of §4.3: per cloud location
// and per middle segment (BGP path), split by device class. They are the
// medians of the RTT values observed over the trailing learning window
// (14 days in production).
type Thresholds struct {
	cloud  map[cloudDevKey]float64
	middle map[middleDevKey]float64
}

type cloudDevKey struct {
	c netmodel.CloudID
	d netmodel.DeviceClass
}

type middleDevKey struct {
	k netmodel.MiddleKey
	d netmodel.DeviceClass
}

// CloudExpected returns the learned expected RTT of clients connecting to
// a cloud location.
func (t *Thresholds) CloudExpected(c netmodel.CloudID, d netmodel.DeviceClass) (float64, bool) {
	v, ok := t.cloud[cloudDevKey{c, d}]
	return v, ok
}

// MiddleExpected returns the learned expected RTT of connections
// traversing a middle segment.
func (t *Thresholds) MiddleExpected(k netmodel.MiddleKey, d netmodel.DeviceClass) (float64, bool) {
	v, ok := t.middle[middleDevKey{k, d}]
	return v, ok
}

// NumCloudEntries returns how many (cloud, device) medians were learned.
func (t *Thresholds) NumCloudEntries() int { return len(t.cloud) }

// NumMiddleEntries returns how many (middle, device) medians were learned.
func (t *Thresholds) NumMiddleEntries() int { return len(t.middle) }

// reservoir is a deterministic fixed-capacity uniform sample (algorithm R
// with a hash-derived random index), bounding the learner's memory while
// keeping the median estimate unbiased.
type reservoir struct {
	vals []float64
	n    int // values offered so far
}

const reservoirCap = 2048

// resMix hashes the offer index for deterministic replacement decisions.
func resMix(a, b uint64) uint64 {
	h := a*0x9E3779B97F4A7C15 + b
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

func (r *reservoir) add(v float64, salt uint64) {
	r.n++
	if len(r.vals) < reservoirCap {
		r.vals = append(r.vals, v)
		return
	}
	j := resMix(uint64(r.n), salt) % uint64(r.n)
	if j < reservoirCap {
		r.vals[j] = v
	}
}

// Learner accumulates RTT observations over a learning window and produces
// Thresholds. In production this runs over the trailing 14 days; the
// reproduction feeds it warmup observations.
type Learner struct {
	cloud  map[cloudDevKey]*reservoir
	middle map[middleDevKey]*reservoir
}

// NewLearner creates an empty threshold learner.
func NewLearner() *Learner {
	return &Learner{
		cloud:  make(map[cloudDevKey]*reservoir),
		middle: make(map[middleDevKey]*reservoir),
	}
}

// AddCloud records one quartet-mean RTT for a cloud location.
func (l *Learner) AddCloud(c netmodel.CloudID, d netmodel.DeviceClass, rtt float64) {
	key := cloudDevKey{c, d}
	r := l.cloud[key]
	if r == nil {
		r = &reservoir{}
		l.cloud[key] = r
	}
	r.add(rtt, uint64(c)<<8|uint64(d))
}

// AddMiddle records one quartet-mean RTT for a middle segment.
func (l *Learner) AddMiddle(k netmodel.MiddleKey, d netmodel.DeviceClass, rtt float64) {
	key := middleDevKey{k, d}
	r := l.middle[key]
	if r == nil {
		r = &reservoir{}
		l.middle[key] = r
	}
	var salt uint64
	for i := 0; i < len(k); i++ {
		salt = salt*131 + uint64(k[i])
	}
	r.add(rtt, salt<<8|uint64(d))
}

// AddObservation records a quartet-mean RTT into both the cloud and middle
// aggregates it belongs to.
func (l *Learner) AddObservation(c netmodel.CloudID, k netmodel.MiddleKey, d netmodel.DeviceClass, rtt float64) {
	l.AddCloud(c, d, rtt)
	l.AddMiddle(k, d, rtt)
}

// Snapshot computes the current medians.
func (l *Learner) Snapshot() *Thresholds {
	t := &Thresholds{
		cloud:  make(map[cloudDevKey]float64, len(l.cloud)),
		middle: make(map[middleDevKey]float64, len(l.middle)),
	}
	// A reservoir's order decides its later replacements, so the median is
	// selected in a copy — one buffer serving every reservoir in turn.
	buf := make([]float64, 0, reservoirCap)
	median := func(r *reservoir) float64 {
		buf = append(buf[:0], r.vals...)
		return stats.MedianInPlace(buf)
	}
	for k, r := range l.cloud {
		if len(r.vals) > 0 {
			t.cloud[k] = median(r)
		}
	}
	for k, r := range l.middle {
		if len(r.vals) > 0 {
			t.middle[k] = median(r)
		}
	}
	return t
}

// StaticThresholds builds Thresholds directly from known expected values,
// for tests and worked examples.
func StaticThresholds(cloud map[netmodel.CloudID]float64, middle map[netmodel.MiddleKey]float64) *Thresholds {
	t := &Thresholds{
		cloud:  make(map[cloudDevKey]float64),
		middle: make(map[middleDevKey]float64),
	}
	for c, v := range cloud {
		for d := 0; d < netmodel.NumDeviceClasses; d++ {
			t.cloud[cloudDevKey{c, netmodel.DeviceClass(d)}] = v
		}
	}
	for k, v := range middle {
		for d := 0; d < netmodel.NumDeviceClasses; d++ {
			t.middle[middleDevKey{k, netmodel.DeviceClass(d)}] = v
		}
	}
	return t
}
