package probe

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

// TestBaselinerRestoredHistoriesStayApart restores a baseliner whose
// histories share the restore's blocks, then stores a baseline on one
// path: it lands in that path's history alone, and the state re-encodes
// to the checkpoint until then.
func TestBaselinerRestoredHistoriesStayApart(t *testing.T) {
	s := newSim(t, nil, bgp.ChurnConfig{}, 2)
	cfg := BackgroundConfig{PeriodBuckets: 12 * netmodel.BucketsPerHour}
	bg := NewBaseliner(cfg, NewEngine(s, 0), s.Routes)
	for b := netmodel.Bucket(0); b < netmodel.BucketsPerDay; b++ {
		bg.Advance(b)
	}
	encode := func(bg *Baseliner) []byte {
		var buf bytes.Buffer
		e := ckpt.NewEncoder(&buf)
		bg.AppendCheckpoint(e)
		if _, _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	body := encode(bg)
	restored := NewBaseliner(cfg, NewEngine(s, 0), s.Routes)
	d := ckpt.NewDecoder(body)
	st := DecodeBaseliner(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if err := restored.Adopt(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(restored), body) {
		t.Fatal("the restored baseliner re-encodes to other bytes")
	}
	var ids []int
	for id, h := range restored.baselines {
		if len(h) > 0 && len(h) < historyLen {
			ids = append(ids, id)
		}
	}
	if len(ids) < 2 {
		t.Fatalf("%d restored histories with room to grow, want two", len(ids))
	}
	before := make([][]Traceroute, len(restored.baselines))
	for id, h := range restored.baselines {
		before[id] = slices.Clone(h)
	}
	h := restored.baselines[ids[0]]
	tr := h[len(h)-1]
	tr.Bucket++
	restored.store(tr)
	if got := restored.baselines[ids[0]]; len(got) != len(h)+1 || got[len(h)].Bucket != tr.Bucket {
		t.Fatalf("path %d's history after a store: %d baselines, want %d ending at bucket %d", ids[0], len(got), len(h)+1, tr.Bucket)
	}
	for id, h := range restored.baselines {
		if id != ids[0] && !reflect.DeepEqual(h, before[id]) {
			t.Fatalf("a store on path %d changed path %d's history", ids[0], id)
		}
	}
}
