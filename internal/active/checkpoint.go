package active

import (
	"math"
	"slices"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

// AppendCheckpoint encodes the open issue runs, by key in sorted order,
// and the last advance. The cadence and the predictor are configuration.
func (t *Tracker) AppendCheckpoint(e *ckpt.Encoder) {
	keys := make([]netmodel.MiddleKey, 0, len(t.open))
	for k := range t.open {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.Len(len(keys))
	for _, k := range keys {
		e.String(string(k))
		e.Int(t.open[k])
	}
	e.Int(int(t.last))
	e.Bool(t.primed)
}

// Adopt takes the open runs and the last advance RestoreCheckpoint read
// into from as t's.
func (t *Tracker) Adopt(from *Tracker) { t.open, t.last, t.primed = from.open, from.last, from.primed }

// RestoreCheckpoint replaces the open runs and the last advance with
// what AppendCheckpoint wrote.
func (t *Tracker) RestoreCheckpoint(d *ckpt.Decoder) {
	t.open = make(map[netmodel.MiddleKey]int)
	var prev netmodel.MiddleKey
	for n := d.Len(2); n > 0 && d.Err() == nil; n-- {
		k := netmodel.MiddleKey(d.String())
		if len(t.open) > 0 && k <= prev {
			d.Failf("issue %q out of order", k)
			return
		}
		prev = k
		t.open[k] = d.Range(1, math.MaxInt32)
	}
	t.last = netmodel.Bucket(d.Int())
	t.primed = d.Bool()
}

// AppendVerdicts encodes verdicts with every field, nil slices told from
// empty ones, so that the read APIs render restored verdicts as they
// rendered the originals.
func AppendVerdicts(e *ckpt.Encoder, vs []Verdict) {
	e.NilLen(vs == nil, len(vs))
	for i := range vs {
		v := &vs[i]
		is := &v.Issue
		e.String(string(is.Key))
		e.Path(is.Path)
		e.Int(int(is.Cloud))
		e.Int(int(is.Bucket))
		e.NilLen(is.Prefixes == nil, len(is.Prefixes))
		for _, p := range is.Prefixes {
			e.Int(int(p))
		}
		e.Int(is.ObservedClients)
		e.Int(is.Lasted)
		e.F64(is.ClientTime)
		e.Bool(v.Probed)
		e.Bool(v.OK)
		e.Bool(v.Degraded)
		e.Int(int(v.AS))
		e.Int(int(v.Segment))
		e.F64(v.IncreaseMS)
	}
}

// RestoreVerdicts reads what AppendVerdicts wrote.
func RestoreVerdicts(d *ckpt.Decoder) []Verdict {
	n, isNil := d.NilLen(30)
	if isNil {
		return nil
	}
	vs := make([]Verdict, n)
	for i := range vs {
		v := &vs[i]
		is := &v.Issue
		is.Key = netmodel.MiddleKey(d.String())
		is.Path = d.Path()
		is.Cloud = netmodel.CloudID(d.Int())
		is.Bucket = netmodel.Bucket(d.Int())
		if n, isNil := d.NilLen(1); !isNil {
			is.Prefixes = make([]netmodel.PrefixID, n)
			for j := range is.Prefixes {
				is.Prefixes[j] = netmodel.PrefixID(d.Int())
			}
		}
		is.ObservedClients = d.Int()
		is.Lasted = d.Int()
		is.ClientTime = d.F64()
		v.Probed = d.Bool()
		v.OK = d.Bool()
		v.Degraded = d.Bool()
		v.AS = netmodel.ASN(d.Int())
		v.Segment = netmodel.Segment(d.Int())
		v.IncreaseMS = d.F64()
		if d.Err() != nil {
			return nil
		}
	}
	return vs
}
