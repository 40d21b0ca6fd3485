package topology

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"blameit/internal/netmodel"
)

// TestWorldPinned pins Generate(scale, 42) at every preset scale to a
// SHA-256 of a canonical rendering of everything the simulator and the
// pipeline read from a world: entities, static latencies (as float bits),
// attachments, targets and every route. A change to the generator, its RNG
// draw order or any lookup moves a digest. Fields are rendered by name, so
// adding or removing a struct field that nothing reads does not.
func TestWorldPinned(t *testing.T) {
	cases := []struct {
		name  string
		scale Scale
		want  string
	}{
		{"small", SmallScale(), "d49d4de498e98391787d1608d78f78a2c4f14404781f7696e7769edd31e79fd1"},
		{"medium", MediumScale(), "4dffbfd2afb358148cc02a3d7f65709abecac31c6f0c614c2708e2cde2271b0d"},
		{"large", LargeScale(), "d1fc8e6a8e7762be6615a9b8afac4359106ee1b3c5e980b3f04c4fee6ad197a8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "large" && testing.Short() {
				t.Skip("large world under -short")
			}
			if got := worldDigest(Generate(tc.scale, 42)); got != tc.want {
				t.Errorf("Generate(%s, 42) digest = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

func worldDigest(w *World) string {
	h := sha256.New()
	renderWorld(h, w)
	return hex.EncodeToString(h.Sum(nil))
}

func renderWorld(h hash.Hash, w *World) {
	b := bufio.NewWriter(h)
	defer b.Flush()
	bits := math.Float64bits

	for _, m := range w.Metros {
		fmt.Fprintf(b, "metro id=%d name=%s region=%d\n", m.ID, m.Name, m.Region)
	}
	for _, c := range w.Clouds {
		fmt.Fprintf(b, "cloud id=%d name=%s metro=%d region=%d base=%x\n",
			c.ID, c.Name, c.Metro, c.Region, bits(w.CloudBaseMS[c.ID]))
	}
	asns := make([]int, 0, len(w.ASes))
	for asn := range w.ASes {
		asns = append(asns, int(asn))
	}
	sort.Ints(asns)
	for _, n := range asns {
		asn := netmodel.ASN(n)
		as := w.ASes[asn]
		base, ok := w.ASBaseMS[asn]
		fmt.Fprintf(b, "as asn=%d name=%s type=%d region=%d base=%x/%t\n",
			as.ASN, as.Name, as.Type, as.Region, bits(base), ok)
	}
	for _, bp := range w.BGPPrefixes {
		fmt.Fprintf(b, "bgp id=%d base=%d mask=%d as=%d metro=%d\n", bp.ID, bp.Base, bp.MaskLen, bp.AS, bp.Metro)
	}
	for _, p := range w.Prefixes {
		fmt.Fprintf(b, "p24 id=%d base=%d as=%d metro=%d bgp=%d active=%d device=%d base_ms=%x target=%x\n",
			p.ID, p.Base, p.AS, p.Metro, p.BGPPrefix, p.ActiveClients, p.Device,
			bits(w.PrefixBaseMS[p.ID]), bits(w.TargetForPrefix(p.ID)))
		for _, att := range w.Attachments(p.ID) {
			fmt.Fprintf(b, " att cloud=%d weight=%x target=%x\n",
				att.Cloud, bits(att.Weight), bits(w.TargetFor(p.ID, att.Cloud)))
		}
	}
	for i := range w.RegionPropMS {
		for j := range w.RegionPropMS[i] {
			fmt.Fprintf(b, "prop %d %d %x\n", i, j, bits(w.RegionPropMS[i][j]))
		}
	}
	for _, reg := range netmodel.AllRegions() {
		for d := 0; d < netmodel.NumDeviceClasses; d++ {
			fmt.Fprintf(b, "target %d %d %x\n", reg, d, bits(w.Target(reg, netmodel.DeviceClass(d))))
		}
	}
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			fmt.Fprintf(b, "route %d %d %s rev=%s alts=", c.ID, bp.ID,
				w.InitialPath(c.ID, bp.ID).FullKey(), w.ReversePath(c.ID, bp.ID).FullKey())
			for _, p := range w.AltPaths(c.ID, bp.ID) {
				fmt.Fprintf(b, "%s;", p.FullKey())
			}
			b.WriteByte('\n')
		}
	}
}
