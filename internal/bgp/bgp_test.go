package bgp

import (
	"sort"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/topology"
)

func testWorld() *topology.World { return topology.Generate(topology.SmallScale(), 42) }

func TestTableDeterministic(t *testing.T) {
	w := testWorld()
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	t1 := NewTable(w, DefaultChurnConfig(), horizon, 9)
	t2 := NewTable(w, DefaultChurnConfig(), horizon, 9)
	if t1.TotalEvents() != t2.TotalEvents() {
		t.Fatal("same seed produced different event counts")
	}
	for b := netmodel.Bucket(0); b < horizon; b += 37 {
		for _, c := range w.Clouds {
			for _, bp := range w.BGPPrefixes {
				if !t1.PathAt(c.ID, bp.ID, b).Equal(t2.PathAt(c.ID, bp.ID, b)) {
					t.Fatal("same seed produced different paths")
				}
			}
		}
	}
}

func TestPathAtStartMatchesInitial(t *testing.T) {
	w := testWorld()
	tbl := NewTable(w, DefaultChurnConfig(), netmodel.BucketsPerDay, 3)
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			// The first event for an entry happens strictly after bucket 0
			// only if churn fired; at bucket 0 the initial route must hold
			// unless a churn event landed exactly at 0.
			got := tbl.PathAt(c.ID, bp.ID, 0)
			evs := tbl.Events(0, 1)
			landedAtZero := false
			for _, e := range evs {
				if e.Cloud == c.ID && e.BGPPrefix == bp.ID {
					landedAtZero = true
				}
			}
			if !landedAtZero && !got.Equal(w.InitialPath(c.ID, bp.ID)) {
				t.Fatal("path at bucket 0 differs from initial route")
			}
		}
	}
}

func TestChurnRateMatchesPaper(t *testing.T) {
	// Roughly one-third of entries should churn per day; equivalently
	// nearly two-thirds see no churn in an entire day (§5.4).
	w := topology.Generate(topology.SmallScale(), 5)
	tbl := NewTable(w, DefaultChurnConfig(), 3*netmodel.BucketsPerDay, 11)
	total := tbl.NumEntries()
	for day := 0; day < 3; day++ {
		churned := tbl.EntriesChurnedOnDay(day)
		frac := float64(churned) / float64(total)
		if frac < 0.15 || frac > 0.50 {
			t.Errorf("day %d churned fraction %.2f outside [0.15, 0.50]", day, frac)
		}
	}
}

func TestNoChurnConfig(t *testing.T) {
	w := testWorld()
	tbl := NewTable(w, ChurnConfig{}, 2*netmodel.BucketsPerDay, 1)
	if tbl.TotalEvents() != 0 {
		t.Fatalf("zero churn config produced %d events", tbl.TotalEvents())
	}
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			for _, b := range []netmodel.Bucket{0, 100, 2*netmodel.BucketsPerDay - 1} {
				if !tbl.PathAt(c.ID, bp.ID, b).Equal(w.InitialPath(c.ID, bp.ID)) {
					t.Fatal("path changed without churn")
				}
			}
		}
	}
}

func TestPathChangesAfterEvent(t *testing.T) {
	w := testWorld()
	tbl := NewTable(w, DefaultChurnConfig(), 2*netmodel.BucketsPerDay, 17)
	evs := tbl.Events(0, tbl.Horizon())
	if len(evs) == 0 {
		t.Skip("no churn events with this seed")
	}
	for _, e := range evs[:min(len(evs), 50)] {
		got := tbl.PathAt(e.Cloud, e.BGPPrefix, e.Bucket)
		if !got.Equal(e.NewPath) {
			t.Fatalf("path at event bucket %d is %v, event says %v", e.Bucket, got, e.NewPath)
		}
	}
}

func TestEventsWindowing(t *testing.T) {
	w := testWorld()
	tbl := NewTable(w, DefaultChurnConfig(), 2*netmodel.BucketsPerDay, 23)
	all := tbl.Events(0, tbl.Horizon())
	mid := tbl.Horizon() / 2
	first := tbl.Events(0, mid)
	second := tbl.Events(mid, tbl.Horizon())
	if len(first)+len(second) != len(all) {
		t.Fatalf("window split lost events: %d + %d != %d", len(first), len(second), len(all))
	}
	for _, e := range first {
		if e.Bucket >= mid {
			t.Fatal("event outside window")
		}
	}
	// Events must be sorted by bucket.
	for i := 1; i < len(all); i++ {
		if all[i].Bucket < all[i-1].Bucket {
			t.Fatal("events not sorted")
		}
	}
}

func TestListenerPollIncremental(t *testing.T) {
	w := testWorld()
	tbl := NewTable(w, DefaultChurnConfig(), 2*netmodel.BucketsPerDay, 29)
	l := NewListener(tbl)
	var polled []Event
	step := netmodel.Bucket(13)
	for b := step; b <= tbl.Horizon(); b += step {
		polled = append(polled, l.Poll(b)...)
	}
	polled = append(polled, l.Poll(tbl.Horizon())...)
	all := tbl.Events(0, tbl.Horizon())
	if len(polled) != len(all) {
		t.Fatalf("listener returned %d events, table has %d", len(polled), len(all))
	}
	// Re-polling returns nothing new.
	if extra := l.Poll(tbl.Horizon()); len(extra) != 0 {
		t.Fatalf("re-poll returned %d events", len(extra))
	}
}

func TestWithdrawEventsPresent(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 5)
	tbl := NewTable(w, DefaultChurnConfig(), 5*netmodel.BucketsPerDay, 31)
	var announces, withdraws int
	for _, e := range tbl.Events(0, tbl.Horizon()) {
		switch e.Kind {
		case Announce:
			announces++
		case Withdraw:
			withdraws++
		}
	}
	if announces == 0 || withdraws == 0 {
		t.Errorf("want both kinds of events, got %d announces, %d withdraws", announces, withdraws)
	}
	if withdraws > announces {
		t.Error("withdrawals should be the minority of events")
	}
}

func TestPathAtForPrefix(t *testing.T) {
	w := testWorld()
	tbl := NewTable(w, ChurnConfig{}, netmodel.BucketsPerDay, 1)
	p := w.Prefixes[3]
	got := tbl.PathAtForPrefix(w.Clouds[0].ID, p.ID, 0)
	want := w.InitialPath(w.Clouds[0].ID, p.BGPPrefix)
	if !got.Equal(want) {
		t.Fatal("PathAtForPrefix did not resolve through the BGP prefix")
	}
}

func TestEventKindString(t *testing.T) {
	if Announce.String() != "announce" || Withdraw.String() != "withdraw" || EventKind(9).String() != "unknown" {
		t.Error("EventKind names wrong")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPathAtMatchesEventLogProperty(t *testing.T) {
	// Property: for any bucket, PathAt equals the NewPath of the entry's
	// most recent event at or before that bucket (or the initial route when
	// no event precedes it).
	w := topology.Generate(topology.SmallScale(), 5)
	horizon := netmodel.Bucket(3 * netmodel.BucketsPerDay)
	tbl := NewTable(w, DefaultChurnConfig(), horizon, 11)
	evs := tbl.Events(0, horizon)
	for _, probe := range []netmodel.Bucket{0, 100, 500, horizon - 1} {
		for _, c := range w.Clouds[:3] {
			for _, bp := range w.BGPPrefixes[:40] {
				want := w.InitialPath(c.ID, bp.ID)
				for _, e := range evs {
					if e.Cloud == c.ID && e.BGPPrefix == bp.ID && e.Bucket <= probe {
						want = e.NewPath
					}
				}
				if got := tbl.PathAt(c.ID, bp.ID, probe); !got.Equal(want) {
					t.Fatalf("PathAt(%d,%d,%d) = %v, event log says %v", c.ID, bp.ID, probe, got, want)
				}
			}
		}
	}
}

func TestEventNewPathsAreKnownAlternates(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 5)
	tbl := NewTable(w, DefaultChurnConfig(), 2*netmodel.BucketsPerDay, 13)
	for _, e := range tbl.Events(0, tbl.Horizon()) {
		valid := e.NewPath.Equal(w.InitialPath(e.Cloud, e.BGPPrefix))
		for _, alt := range w.AltPaths(e.Cloud, e.BGPPrefix) {
			if e.NewPath.Equal(alt) {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("event switched to a route that is neither primary nor alternate: %v", e.NewPath)
		}
	}
}

// TestRouteAtMatchesSegmentsAndKeys holds the route accessor to a naive
// reading of the table — the last segment that started at or before the
// bucket, found by the standard library's search — and the key it hands out
// to the path's own Key(), for every entry, one bucket before, at and after
// every segment boundary and at both ends of the horizon. The /24 form
// must agree, every event must carry its new path's key, and none of it
// may allocate.
func TestRouteAtMatchesSegmentsAndKeys(t *testing.T) {
	w := testWorld()
	horizon := netmodel.Bucket(4 * netmodel.BucketsPerDay)
	tbl := NewTable(w, DefaultChurnConfig(), horizon, 44)
	multi := 0
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			entry := tbl.entries[int(c.ID)*tbl.nBGP+int(bp.ID)]
			if !sort.SliceIsSorted(entry, func(i, j int) bool { return entry[i].From < entry[j].From }) {
				t.Fatalf("cloud %d bgp %d: segments out of order", c.ID, bp.ID)
			}
			if len(entry) > 1 {
				multi++
			}
			at := []netmodel.Bucket{0, horizon - 1}
			for _, seg := range entry {
				at = append(at, seg.From-1, seg.From, seg.From+1)
			}
			kid := w.PrefixesOfBGP(bp.ID)[0]
			for _, b := range at {
				if b < 0 || b >= horizon {
					continue
				}
				want := entry[0]
				if i := sort.Search(len(entry), func(i int) bool { return entry[i].From > b }); i > 0 {
					want = entry[i-1]
				}
				path, key := tbl.RouteAt(c.ID, bp.ID, b)
				if !path.Equal(want.Path) || key != want.Path.Key() {
					t.Fatalf("cloud %d bgp %d bucket %d: RouteAt = %v %q, want %v %q", c.ID, bp.ID, b, path, key, want.Path, want.Path.Key())
				}
				if !tbl.PathAt(c.ID, bp.ID, b).Equal(want.Path) || !tbl.PathAtForPrefix(c.ID, kid, b).Equal(want.Path) {
					t.Fatalf("cloud %d bgp %d bucket %d: PathAt disagrees with RouteAt", c.ID, bp.ID, b)
				}
				if p2, k2 := tbl.RouteAtForPrefix(c.ID, kid, b); !p2.Equal(path) || k2 != key {
					t.Fatalf("cloud %d bgp %d bucket %d: RouteAtForPrefix disagrees with RouteAt", c.ID, bp.ID, b)
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no entry churned: the segment search went untested")
	}
	for _, e := range tbl.Events(0, horizon) {
		if e.NewKey != e.NewPath.Key() {
			t.Fatalf("event at bucket %d: NewKey %q, NewPath.Key() %q", e.Bucket, e.NewKey, e.NewPath.Key())
		}
	}
	c, p := w.Clouds[0].ID, w.Prefixes[0].ID
	if n := testing.AllocsPerRun(100, func() { tbl.RouteAtForPrefix(c, p, horizon/2) }); n != 0 {
		t.Errorf("RouteAtForPrefix allocates %v times a call", n)
	}
}
