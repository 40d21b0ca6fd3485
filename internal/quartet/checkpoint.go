package quartet

import (
	"cmp"
	"math"
	"slices"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

func compareKeys(a, b Key) int {
	return cmp.Or(cmp.Compare(a.Prefix, b.Prefix), cmp.Compare(a.Cloud, b.Cloud), cmp.Compare(a.Device, b.Device))
}

// AppendCheckpoint encodes the open runs, by key in order, and the last
// advance. The tracker holds no closed incident.
func (t *Tracker) AppendCheckpoint(e *ckpt.Encoder) {
	keys := make([]Key, 0, len(t.open))
	for k := range t.open {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	e.Len(len(keys))
	for _, k := range keys {
		inc := t.open[k]
		e.Int(int(k.Prefix))
		e.Int(int(k.Cloud))
		e.Int(int(k.Device))
		e.Int(int(inc.Start))
		e.Int(inc.Buckets)
	}
	e.Int(int(t.last))
	e.Bool(t.primed)
}

// RestoreCheckpoint replaces the open runs and the last advance with
// what AppendCheckpoint wrote.
func (t *Tracker) RestoreCheckpoint(d *ckpt.Decoder) {
	t.open = make(map[Key]Incident)
	var prev Key
	for n := d.Len(5); n > 0 && d.Err() == nil; n-- {
		k := Key{Prefix: netmodel.PrefixID(d.Int()), Cloud: netmodel.CloudID(d.Int()), Device: netmodel.DeviceClass(d.Int())}
		if len(t.open) > 0 && compareKeys(prev, k) >= 0 {
			d.Failf("run %v out of order", k)
			return
		}
		prev = k
		t.open[k] = Incident{Key: k, Start: netmodel.Bucket(d.Int()), Buckets: d.Range(1, math.MaxInt32)}
	}
	t.last = netmodel.Bucket(d.Int())
	t.primed = d.Bool()
}
