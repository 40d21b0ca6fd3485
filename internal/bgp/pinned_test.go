package bgp

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/topology"
)

// TestTablePinned pins NewTable over Generate(scale, 42) with churn seed 44
// (sim.Seeded's seed+2) at every preset scale and at 4 and 30 days to a
// SHA-256 of every entry's segments — start bucket, path and key ID — and
// of the event log in order: bucket, cloud, BGP prefix, kind, new path and
// its key ID. A change to the churn draws, their order, the key intern
// order or the order ties take in the event log moves a digest. The
// Baseliner's churn dedupe reads events in log order, so ties matter.
func TestTablePinned(t *testing.T) {
	cases := []struct {
		name  string
		scale topology.Scale
		days  int
		want  string
	}{
		{"small/4", topology.SmallScale(), 4, "a3eb669bd54e978d2d7f68e93d0d6ed5ba1cb241a1d25d1f59bbd5a96579f159"},
		{"small/30", topology.SmallScale(), 30, "7d55b7941a8c39dc42b2b57a124c75d541ea50df801cdd6854c7bffc4131179e"},
		{"medium/4", topology.MediumScale(), 4, "26669c8ceee9baad8909d54da6e306209fb70c2da2b079e9badcaece54db14b4"},
		{"medium/30", topology.MediumScale(), 30, "a51b7a88bf9178da0e4539bb0c1b334722f5694daa60f7bef34c02e28ac72a22"},
		{"large/4", topology.LargeScale(), 4, "42fb3fba5edabf7b0e274155159618f62e88b65c81f432088fb8d3ce56462683"},
		{"large/30", topology.LargeScale(), 30, "a2dff253baeb4018c750d46872041541b9dc87a65a018a1e3d6238a797b8ac24"},
	}
	worlds := make(map[string]*topology.World)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "large/30" && testing.Short() {
				t.Skip("large world over 30 days under -short")
			}
			key := fmt.Sprint(tc.scale)
			w := worlds[key]
			if w == nil {
				w = topology.Generate(tc.scale, 42)
				worlds[key] = w
			}
			tbl := NewTable(w, DefaultChurnConfig(), netmodel.Bucket(tc.days*netmodel.BucketsPerDay), 44)
			if got := tableDigest(tbl); got != tc.want {
				t.Errorf("NewTable(%s) digest = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

func tableDigest(t *Table) string {
	h := sha256.New()
	b := bufio.NewWriter(h)
	var buf []byte
	put := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	path := func(p netmodel.Path) {
		put(int64(p.Cloud), int64(len(p.Middle)))
		for _, a := range p.Middle {
			put(int64(a))
		}
		put(int64(p.Client))
	}
	for i, entry := range t.entries {
		buf = buf[:0]
		put(int64(i), int64(len(entry)))
		for _, seg := range entry {
			put(int64(seg.From))
			path(segPath(t, i, seg))
			put(int64(seg.ID))
		}
		b.Write(buf)
	}
	evs := t.Events(0, t.Horizon())
	buf = buf[:0]
	put(int64(len(evs)))
	b.Write(buf)
	for _, e := range evs {
		buf = buf[:0]
		put(int64(e.Bucket), int64(e.Cloud), int64(e.BGPPrefix), int64(e.Kind))
		path(eventPath(t, e))
		put(int64(e.NewID))
		b.Write(buf)
	}
	b.Flush()
	return hex.EncodeToString(h.Sum(nil))
}
