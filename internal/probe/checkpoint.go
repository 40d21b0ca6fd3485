package probe

import (
	"cmp"
	"math"
	"slices"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

// AppendCheckpoint encodes the baseliner's state: the retained baselines
// of each path that has any, the suppressions in force, and the BGP
// listener's position. The periodic schedule is configuration, rebuilt by
// NewBaselinerWith.
func (bg *Baseliner) AppendCheckpoint(e *ckpt.Encoder) {
	n := 0
	for _, h := range bg.baselines {
		if len(h) > 0 {
			n++
		}
	}
	e.Len(n)
	prev := -1
	for id, h := range bg.baselines {
		if len(h) == 0 {
			continue
		}
		e.Gap(prev, id)
		prev = id
		e.Len(len(h))
		for i := range h {
			appendTraceroute(e, &h[i])
		}
	}
	n = 0
	for _, until := range bg.suppressed {
		if until != 0 {
			n++
		}
	}
	e.Len(n)
	prev = -1
	for id, until := range bg.suppressed {
		if until != 0 {
			e.Gap(prev, id)
			prev = id
			e.Int(int(until))
		}
	}
	e.Len(bg.listener.Position())
}

// RestoreCheckpoint replaces the baseliner's state with what
// AppendCheckpoint wrote.
func (bg *Baseliner) RestoreCheckpoint(d *ckpt.Decoder) {
	keys := len(bg.baselines)
	clear(bg.baselines)
	var sl traceSlabs
	prev := -1
	for n := d.Bound(keys); n > 0 && d.Err() == nil; n-- {
		id := d.Gap(prev, keys)
		prev = id
		// Capped: store appends to a restored history.
		h := sl.trs.Take(d.Bound(historyLen))
		if len(h) == 0 {
			d.Failf("path %d with no baselines", id)
		}
		for i := range h {
			sl.restore(d, &h[i])
		}
		bg.baselines[id] = h
	}
	clear(bg.suppressed)
	prev = -1
	for n := d.Bound(keys); n > 0 && d.Err() == nil; n-- {
		id := d.Gap(prev, keys)
		prev = id
		until := d.Int()
		if until == 0 {
			d.Failf("suppression of path %d ends at bucket 0", id)
		}
		bg.suppressed[id] = netmodel.Bucket(until)
	}
	if next := d.Bound(math.MaxInt32); d.Err() == nil && !bg.listener.SetPosition(next) {
		d.Failf("listener position %d past the event log", next)
	}
}

func appendTraceroute(e *ckpt.Encoder, tr *Traceroute) {
	e.Int(int(tr.Cloud))
	e.Int(int(tr.Prefix))
	e.Int(int(tr.Bucket))
	e.Path(tr.Path)
	e.NilLen(tr.Hops == nil, len(tr.Hops))
	for _, h := range tr.Hops {
		e.Int(int(h.AS))
		e.Int(int(h.Segment))
		e.F64(h.CumulativeMS)
	}
}

// traceSlabs cut a restore's traceroutes, their path middles and their
// hops from a few blocks.
type traceSlabs struct {
	trs  ckpt.Slab[Traceroute]
	asns ckpt.Slab[netmodel.ASN]
	hops ckpt.Slab[Hop]
}

func (sl *traceSlabs) restore(d *ckpt.Decoder, tr *Traceroute) {
	*tr = Traceroute{
		Cloud:  netmodel.CloudID(d.Int()),
		Prefix: netmodel.PrefixID(d.Int()),
		Bucket: netmodel.Bucket(d.Int()),
		Path:   d.SlabPath(&sl.asns),
	}
	if n, isNil := d.NilLen(10); !isNil {
		tr.Hops = sl.hops.Take(n)
		for i := range tr.Hops {
			tr.Hops[i] = Hop{AS: netmodel.ASN(d.Int()), Segment: netmodel.Segment(d.Int()), CumulativeMS: d.F64()}
		}
	}
}

// AppendCheckpoint encodes the spend and the denials, each as its
// (entity, day) entries in order. The allowance and the mode are
// configuration.
func (bu *Budget) AppendCheckpoint(e *ckpt.Encoder) {
	for _, m := range []map[budgetKey]int{bu.used, bu.denied} {
		keys := make([]budgetKey, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, compareBudgetKeys)
		e.Len(len(keys))
		for _, k := range keys {
			e.Int(k.id)
			e.Int(k.day)
			e.Int(m[k])
		}
	}
}

func compareBudgetKeys(a, b budgetKey) int {
	return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.day, b.day))
}

// RestoreCheckpoint replaces the spend and the denials with what
// AppendCheckpoint wrote.
func (bu *Budget) RestoreCheckpoint(d *ckpt.Decoder) {
	for _, m := range []map[budgetKey]int{bu.used, bu.denied} {
		clear(m)
		var prev budgetKey
		for n := d.Len(3); n > 0 && d.Err() == nil; n-- {
			k := budgetKey{id: d.Int(), day: d.Int()}
			if len(m) > 0 && compareBudgetKeys(prev, k) >= 0 {
				d.Failf("budget entry %v out of order", k)
				return
			}
			prev = k
			m[k] = d.Range(1, math.MaxInt32)
		}
	}
}
