package probe

import (
	"cmp"
	"fmt"
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

// BaselinerState is a baseliner's state as DecodeBaseliner reads it,
// before the key space and the BGP event log it must fit are known.
type BaselinerState struct {
	Baselines  ckpt.Sparse[[]Traceroute]
	Suppressed ckpt.Sparse[netmodel.Bucket]
	Position   int
}

// DecodeBaseliner reads what Baseliner.AppendCheckpoint wrote.
func DecodeBaseliner(d *ckpt.Decoder) BaselinerState {
	var st BaselinerState
	var sl traceSlabs
	st.Baselines = ckpt.ReadSparse(d, math.MaxInt32, func() []Traceroute {
		// Capped: store appends to a restored history.
		h := sl.trs.Take(d.Bound(historyLen))
		if len(h) == 0 {
			d.Failf("a path with no baselines")
		}
		for i := range h {
			sl.restore(d, &h[i])
		}
		return h
	})
	st.Suppressed = ckpt.ReadSparse(d, math.MaxInt32, func() netmodel.Bucket {
		until := d.Int()
		if until == 0 {
			d.Failf("a suppression ending at bucket 0")
		}
		return netmodel.Bucket(until)
	})
	st.Position = d.Bound(math.MaxInt32)
	return st
}

// Adopt replaces the baseliner's state with st's, once its paths are in
// the baseliner's key space and its listener position in the BGP event
// log.
func (bg *Baseliner) Adopt(st BaselinerState) error {
	keys := len(bg.baselines)
	if n := max(st.Baselines.Span(), st.Suppressed.Span()); n > keys {
		return fmt.Errorf("path %d, the key space has %d", n-1, keys)
	}
	if !bg.listener.SetPosition(st.Position) {
		return fmt.Errorf("listener position %d past the event log", st.Position)
	}
	clear(bg.baselines)
	st.Baselines.Each(func(id int, h []Traceroute) { bg.baselines[id] = h })
	clear(bg.suppressed)
	st.Suppressed.Each(func(id int, until netmodel.Bucket) { bg.suppressed[id] = until })
	return nil
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

// Adopt takes the spend and the denials RestoreCheckpoint read into from
// as bu's.
func (bu *Budget) Adopt(from *Budget) { bu.used, bu.denied = from.used, from.denied }

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
