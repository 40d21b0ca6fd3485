package core

import (
	"fmt"
	"math"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
	"blameit/internal/stats"
)

// Thresholds holds the learned expected RTTs of §4.3: per cloud location
// and per middle segment (BGP path), split by device class. They are the
// medians of the RTT values observed over the trailing learning window
// (14 days in production). Middle entries are indexed by the KeyID of the
// BGP table's key space, times the device classes, plus the device.
type Thresholds struct {
	keys   *netmodel.KeySpace
	cloud  []expected // by cloud*NumDeviceClasses + device
	middle []expected // by KeyID*NumDeviceClasses + device
}

// expected is one learned median; ok is false where nothing was learned.
type expected struct {
	v  float64
	ok bool
}

// slot returns the flat index of (i, device).
func slot(i int, d netmodel.DeviceClass) int { return i*netmodel.NumDeviceClasses + int(d) }

// at reads entry i of a flat expected slice.
func at(es []expected, i int) (float64, bool) {
	if i < 0 || i >= len(es) {
		return 0, false
	}
	return es[i].v, es[i].ok
}

// CloudExpected returns the learned expected RTT of clients connecting to
// a cloud location.
func (t *Thresholds) CloudExpected(c netmodel.CloudID, d netmodel.DeviceClass) (float64, bool) {
	return at(t.cloud, slot(int(c), d))
}

// MiddleExpected returns the learned expected RTT of connections
// traversing a middle segment. A key outside the key space the thresholds
// were learned in has none.
func (t *Thresholds) MiddleExpected(k netmodel.MiddleKey, d netmodel.DeviceClass) (float64, bool) {
	id, ok := t.keys.ID(k)
	if !ok {
		return 0, false
	}
	return t.middleExpected(id, d)
}

// middleExpected is MiddleExpected by KeyID.
func (t *Thresholds) middleExpected(id netmodel.KeyID, d netmodel.DeviceClass) (float64, bool) {
	return at(t.middle, slot(int(id), d))
}

// count returns how many entries of es were learned.
func count(es []expected) int {
	n := 0
	for _, e := range es {
		if e.ok {
			n++
		}
	}
	return n
}

// NumCloudEntries returns how many (cloud, device) medians were learned.
func (t *Thresholds) NumCloudEntries() int { return count(t.cloud) }

// NumMiddleEntries returns how many (middle, device) medians were learned.
func (t *Thresholds) NumMiddleEntries() int { return count(t.middle) }

// reservoir is a deterministic fixed-capacity uniform sample (algorithm R
// with a hash-derived random index), bounding the learner's memory while
// keeping the median estimate unbiased.
type reservoir struct {
	vals []float64
	n    int    // values offered so far
	salt uint64 // mixed into every replacement decision, fixed per aggregate
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

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.vals) < reservoirCap {
		r.vals = append(r.vals, v)
		return
	}
	j := resMix(uint64(r.n), r.salt) % uint64(r.n)
	if j < reservoirCap {
		r.vals[j] = v
	}
}

// Learner accumulates RTT observations over a learning window and produces
// Thresholds. In production this runs over the trailing 14 days; the
// reproduction feeds it warmup observations. Middle segments are named by
// their KeyID in the key space the learner was made with; a reservoir is
// allocated when its (key, device) pair is first offered a value.
type Learner struct {
	keys   *netmodel.KeySpace
	cloud  []*reservoir // by cloud*NumDeviceClasses + device
	middle []*reservoir // by KeyID*NumDeviceClasses + device
}

// NewLearner creates an empty threshold learner over a key space — the BGP
// table's, whose IDs the pipeline's routes carry.
func NewLearner(keys *netmodel.KeySpace) *Learner {
	return &Learner{keys: keys, middle: make([]*reservoir, keys.Len()*netmodel.NumDeviceClasses)}
}

// AddCloud records one quartet-mean RTT for a cloud location.
func (l *Learner) AddCloud(c netmodel.CloudID, d netmodel.DeviceClass, rtt float64) {
	i := slot(int(c), d)
	l.cloud = grown(l.cloud, i+1)
	if l.cloud[i] == nil {
		l.cloud[i] = &reservoir{salt: uint64(c)<<8 | uint64(d)}
	}
	l.cloud[i].add(rtt)
}

// AddMiddle records one quartet-mean RTT for a middle segment. The
// reservoir's salt is derived from the key's bytes, once, when the
// reservoir is created.
func (l *Learner) AddMiddle(id netmodel.KeyID, d netmodel.DeviceClass, rtt float64) {
	i := slot(int(id), d)
	l.middle = grown(l.middle, i+1)
	if l.middle[i] == nil {
		k := l.keys.Key(id)
		var salt uint64
		for j := 0; j < len(k); j++ {
			salt = salt*131 + uint64(k[j])
		}
		l.middle[i] = &reservoir{salt: salt<<8 | uint64(d)}
	}
	l.middle[i].add(rtt)
}

// AddObservation records a quartet-mean RTT into both the cloud and middle
// aggregates it belongs to.
func (l *Learner) AddObservation(c netmodel.CloudID, id netmodel.KeyID, d netmodel.DeviceClass, rtt float64) {
	l.AddCloud(c, d, rtt)
	l.AddMiddle(id, d, rtt)
}

// Snapshot computes the current medians.
func (l *Learner) Snapshot() *Thresholds {
	// A reservoir's order decides its later replacements, so the median is
	// selected in a copy — one buffer serving every reservoir in turn.
	buf := make([]float64, 0, reservoirCap)
	medians := func(rs []*reservoir) []expected {
		out := make([]expected, len(rs))
		for i, r := range rs {
			if r != nil && len(r.vals) > 0 {
				buf = append(buf[:0], r.vals...)
				out[i] = expected{stats.MedianInPlace(buf), true}
			}
		}
		return out
	}
	return &Thresholds{keys: l.keys, cloud: medians(l.cloud), middle: medians(l.middle)}
}

// StaticThresholds builds Thresholds directly from known expected values,
// for tests and worked examples. Middle keys are resolved through keys, the
// key space the localizer's routes come from; a key the space does not hold
// names no route and is dropped.
func StaticThresholds(keys *netmodel.KeySpace, cloud map[netmodel.CloudID]float64, middle map[netmodel.MiddleKey]float64) *Thresholds {
	t := &Thresholds{keys: keys}
	for c, v := range cloud {
		for d := 0; d < netmodel.NumDeviceClasses; d++ {
			i := slot(int(c), netmodel.DeviceClass(d))
			t.cloud = grown(t.cloud, i+1)
			t.cloud[i] = expected{v, true}
		}
	}
	for k, v := range middle {
		id, ok := keys.ID(k)
		if !ok {
			continue
		}
		for d := 0; d < netmodel.NumDeviceClasses; d++ {
			i := slot(int(id), netmodel.DeviceClass(d))
			t.middle = grown(t.middle, i+1)
			t.middle[i] = expected{v, true}
		}
	}
	return t
}

// AppendCheckpoint encodes the learner's reservoirs, cloud then middle:
// each slice's length, then its allocated reservoirs sparsely (index gap,
// values offered, salt, and the min(offered, capacity) values in order —
// the order decides later replacements).
func (l *Learner) AppendCheckpoint(e *ckpt.Encoder) {
	for _, rs := range [][]*reservoir{l.cloud, l.middle} {
		e.Len(len(rs))
		n := 0
		for _, r := range rs {
			if r != nil {
				n++
			}
		}
		e.Len(n)
		prev := -1
		for i, r := range rs {
			if r == nil {
				continue
			}
			e.Gap(prev, i)
			prev = i
			e.Varint(int64(r.n))
			e.Uvarint(r.salt)
			e.F64s(r.vals)
		}
	}
}

// LearnerState is a learner's reservoirs as DecodeLearner reads them,
// before the clouds and the key space they must fit are known.
type LearnerState struct{ Cloud, Middle ckpt.Sparse[*reservoir] }

// DecodeLearner reads what Learner.AppendCheckpoint wrote.
func DecodeLearner(d *ckpt.Decoder) LearnerState {
	var sl reservoirSlabs
	return LearnerState{Cloud: sl.decode(d), Middle: sl.decode(d)}
}

// Adopt replaces the learner's reservoirs with st's, once the cloud slice
// fits clouds locations and the middle slice spans the learner's key
// space exactly.
func (l *Learner) Adopt(st LearnerState, clouds int) error {
	if limit := clouds * netmodel.NumDeviceClasses; st.Cloud.Len > limit {
		return fmt.Errorf("cloud reservoirs of %d entries, the world's clouds have %d", st.Cloud.Len, limit)
	}
	if st.Middle.Len != len(l.middle) {
		return fmt.Errorf("middle reservoirs of %d entries, the key space has %d", st.Middle.Len, len(l.middle))
	}
	l.cloud, l.middle = st.Cloud.Dense(), st.Middle.Dense()
	return nil
}

// reservoirSlabs cut a decode's reservoirs and their values from a few
// blocks.
type reservoirSlabs struct {
	rs   ckpt.Slab[reservoir]
	vals ckpt.Slab[float64]
}

// decode reads one reservoir slice.
func (sl *reservoirSlabs) decode(d *ckpt.Decoder) ckpt.Sparse[*reservoir] {
	return ckpt.ReadSparse(d, d.Bound(math.MaxInt32), func() *reservoir {
		r := &sl.rs.Take(1)[0]
		r.n = int(d.Varint())
		r.salt = d.Uvarint()
		if r.n < 1 {
			d.Failf("reservoir with %d values offered", r.n)
			return nil
		}
		k := min(r.n, reservoirCap)
		if k > d.Left()/8 {
			d.Failf("reservoir of %d values exceeds the input", k)
			return nil
		}
		r.vals = sl.vals.Take(k)
		d.F64s(r.vals)
		return r
	})
}

// AppendCheckpoint encodes the thresholds: for the cloud and the middle
// slices, the length and the learned entries sparsely.
func (t *Thresholds) AppendCheckpoint(e *ckpt.Encoder) {
	for _, es := range [][]expected{t.cloud, t.middle} {
		e.Len(len(es))
		e.Len(count(es))
		prev := -1
		for i, x := range es {
			if x.ok {
				e.Gap(prev, i)
				prev = i
				e.F64(x.v)
			}
		}
	}
}

// ThresholdsState is thresholds as DecodeThresholds reads them, before
// the clouds and the key space they must fit are known.
type ThresholdsState struct{ Cloud, Middle ckpt.Sparse[float64] }

// DecodeThresholds reads what Thresholds.AppendCheckpoint wrote.
func DecodeThresholds(d *ckpt.Decoder) ThresholdsState {
	var st ThresholdsState
	for _, es := range []*ckpt.Sparse[float64]{&st.Cloud, &st.Middle} {
		*es = ckpt.ReadSparse(d, d.Bound(math.MaxInt32), d.F64)
	}
	return st
}

// AdoptThresholds makes thresholds of st over the key space they are
// learned in and clouds locations, once st fits both.
func AdoptThresholds(st ThresholdsState, keys *netmodel.KeySpace, clouds int) (*Thresholds, error) {
	cloud, err := expectations(st.Cloud, clouds*netmodel.NumDeviceClasses, "cloud")
	if err != nil {
		return nil, err
	}
	middle, err := expectations(st.Middle, keys.Len()*netmodel.NumDeviceClasses, "middle")
	if err != nil {
		return nil, err
	}
	return &Thresholds{keys: keys, cloud: cloud, middle: middle}, nil
}

// expectations lays out a decoded threshold slice no longer than limit.
func expectations(sp ckpt.Sparse[float64], limit int, what string) ([]expected, error) {
	if sp.Len > limit {
		return nil, fmt.Errorf("%s thresholds of %d entries, the world has %d", what, sp.Len, limit)
	}
	es := make([]expected, sp.Len)
	sp.Each(func(i int, v float64) { es[i] = expected{v, true} })
	return es, nil
}
