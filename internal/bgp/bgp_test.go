package bgp

import (
	"math/rand"
	"sort"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/topology"
)

func testWorld() *topology.World { return topology.Generate(topology.SmallScale(), 42) }

// totalEvents returns the number of churn events over the horizon.
func totalEvents(t *Table) int { return len(t.events) }

// entriesChurnedOnDay counts distinct (cloud, BGP prefix) entries with at
// least one event on the given day.
func entriesChurnedOnDay(t *Table, day int) int {
	from := netmodel.Bucket(day * netmodel.BucketsPerDay)
	to := from + netmodel.BucketsPerDay
	seen := make(map[[2]int]bool)
	for _, e := range t.Events(from, to) {
		seen[[2]int{int(e.Cloud), int(e.BGPPrefix)}] = true
	}
	return len(seen)
}

// numEntries returns the number of routing entries (clouds × BGP prefixes).
func numEntries(t *Table) int { return len(t.entries) }

// segPath returns the path of a segment of entry idx.
func segPath(t *Table, idx int, seg segment) netmodel.Path {
	return t.world.Routes(netmodel.CloudID(idx/t.nBGP), netmodel.BGPPrefixID(idx%t.nBGP))[seg.route]
}

// eventPath returns the path an event moves its entry to: the entry's
// route with the event's key. Routes of one entry share a key only when
// they are equal.
func eventPath(t *Table, e Event) netmodel.Path {
	for _, p := range t.world.Routes(e.Cloud, e.BGPPrefix) {
		if p.Key() == t.Key(e.NewID) {
			return p
		}
	}
	return netmodel.Path{}
}

func TestTableDeterministic(t *testing.T) {
	w := testWorld()
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	t1 := NewTable(w, DefaultChurnConfig(), horizon, 9)
	t2 := NewTable(w, DefaultChurnConfig(), horizon, 9)
	if totalEvents(t1) != totalEvents(t2) {
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
	total := numEntries(tbl)
	for day := 0; day < 3; day++ {
		churned := entriesChurnedOnDay(tbl, day)
		frac := float64(churned) / float64(total)
		if frac < 0.15 || frac > 0.50 {
			t.Errorf("day %d churned fraction %.2f outside [0.15, 0.50]", day, frac)
		}
	}
}

func TestNoChurnConfig(t *testing.T) {
	w := testWorld()
	tbl := NewTable(w, ChurnConfig{}, 2*netmodel.BucketsPerDay, 1)
	if totalEvents(tbl) != 0 {
		t.Fatalf("zero churn config produced %d events", totalEvents(tbl))
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
		if !got.Equal(eventPath(tbl, e)) {
			t.Fatalf("path at event bucket %d is %v, event says %v", e.Bucket, got, eventPath(tbl, e))
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
						want = eventPath(tbl, e)
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
		valid := eventPath(tbl, e).Equal(w.InitialPath(e.Cloud, e.BGPPrefix))
		for _, alt := range w.AltPaths(e.Cloud, e.BGPPrefix) {
			if eventPath(tbl, e).Equal(alt) {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("event switched to a route that is neither primary nor alternate: %v", eventPath(tbl, e))
		}
	}
}

// TestRouteAtMatchesSegmentsAndKeys holds the route accessor to a naive
// reading of the table — the last segment that started at or before the
// bucket, found by the standard library's search — and the key its ID
// stands for to the path's own Key(), for every entry, one bucket before,
// at and after every segment boundary and at both ends of the horizon. The
// /24 form must agree, every event must carry its new path's key ID, and
// none of it may allocate.
func TestRouteAtMatchesSegmentsAndKeys(t *testing.T) {
	w := testWorld()
	horizon := netmodel.Bucket(4 * netmodel.BucketsPerDay)
	tbl := NewTable(w, DefaultChurnConfig(), horizon, 44)
	multi := 0
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			idx := int(c.ID)*tbl.nBGP + int(bp.ID)
			entry := tbl.entries[idx]
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
				wantPath := segPath(tbl, idx, want)
				path, key := tbl.RouteAt(c.ID, bp.ID, b)
				if !path.Equal(wantPath) || tbl.Key(key) != wantPath.Key() {
					t.Fatalf("cloud %d bgp %d bucket %d: RouteAt = %v %q, want %v %q", c.ID, bp.ID, b, path, tbl.Key(key), wantPath, wantPath.Key())
				}
				if !tbl.PathAt(c.ID, bp.ID, b).Equal(wantPath) || !tbl.PathAtForPrefix(c.ID, kid, b).Equal(wantPath) {
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
		if tbl.Key(e.NewID) != eventPath(tbl, e).Key() {
			t.Fatalf("event at bucket %d: NewID stands for %q, NewPath.Key() is %q", e.Bucket, tbl.Key(e.NewID), eventPath(tbl, e).Key())
		}
	}
	c, p := w.Clouds[0].ID, w.Prefixes[0].ID
	if n := testing.AllocsPerRun(100, func() { tbl.RouteAtForPrefix(c, p, horizon/2) }); n != 0 {
		t.Errorf("RouteAtForPrefix allocates %v times a call", n)
	}
}

// TestKeyIDsDenseAndCanonical pins the table's key space: every segment's
// ID is in [0, NumKeys), two segments share an ID exactly when their paths
// share a middle key, every ID is some segment's, Key(id) round-trips
// through the space, and a second build from the same inputs assigns the
// same IDs to the same segments.
func TestKeyIDsDenseAndCanonical(t *testing.T) {
	w := testWorld()
	horizon := netmodel.Bucket(3 * netmodel.BucketsPerDay)
	tbl := NewTable(w, DefaultChurnConfig(), horizon, 44)
	again := NewTable(w, DefaultChurnConfig(), horizon, 44)
	n := tbl.NumKeys()
	if n == 0 || again.NumKeys() != n {
		t.Fatalf("NumKeys %d, rebuilt %d", n, again.NumKeys())
	}
	idOf := make(map[netmodel.MiddleKey]netmodel.KeyID)
	used := make([]bool, n)
	for i, entry := range tbl.entries {
		for j, seg := range entry {
			if seg.ID < 0 || int(seg.ID) >= n {
				t.Fatalf("entry %d segment %d: ID %d outside [0, %d)", i, j, seg.ID, n)
			}
			k := segPath(tbl, i, seg).Key()
			if id, seen := idOf[k]; seen && id != seg.ID {
				t.Fatalf("key %q has IDs %d and %d", k, id, seg.ID)
			}
			idOf[k] = seg.ID
			used[seg.ID] = true
			if tbl.Key(seg.ID) != k {
				t.Fatalf("Key(%d) = %q, segment key %q", seg.ID, tbl.Key(seg.ID), k)
			}
			if id, ok := tbl.Keys().ID(k); !ok || id != seg.ID {
				t.Fatalf("Keys().ID(%q) = %d, %v; want %d", k, id, ok, seg.ID)
			}
			if other := again.entries[i][j]; other.ID != seg.ID || !segPath(again, i, other).Equal(segPath(tbl, i, seg)) {
				t.Fatalf("entry %d segment %d: rebuilt table assigns ID %d, first build %d", i, j, other.ID, seg.ID)
			}
		}
	}
	// Distinct keys got distinct IDs (idOf is injective on the way in),
	// and no ID is left unused: the space is dense.
	if len(idOf) != n {
		t.Fatalf("%d distinct keys, %d IDs", len(idOf), n)
	}
	for id, ok := range used {
		if !ok {
			t.Fatalf("ID %d belongs to no segment", id)
		}
	}
}

// TestCursorMatchesRouteAt walks a cursor forward bucket by bucket over
// the whole horizon, then seeks it back and forth, and holds every entry's
// route to RouteAt at every position; reading a route must not allocate.
func TestCursorMatchesRouteAt(t *testing.T) {
	w := testWorld()
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	tbl := NewTable(w, DefaultChurnConfig(), horizon, 45)
	cur := tbl.NewCursor()
	check := func(b netmodel.Bucket) {
		t.Helper()
		cur.Seek(b)
		for _, c := range w.Clouds {
			for _, p := range w.Prefixes {
				wantPath, wantID := tbl.RouteAtForPrefix(c.ID, p.ID, b)
				if path, id := cur.RouteForPrefix(c.ID, p.ID); id != wantID || !path.Equal(wantPath) {
					t.Fatalf("bucket %d cloud %d prefix %d: cursor %v #%d, RouteAt %v #%d", b, c.ID, p.ID, path, id, wantPath, wantID)
				}
			}
		}
	}
	for b := netmodel.Bucket(0); b < horizon+3; b += 1 + b%5 {
		check(b)
	}
	for _, b := range []netmodel.Bucket{40, 39, 400, 7, 7, horizon - 1, 0} {
		check(b)
	}
	c, p := w.Clouds[0].ID, w.Prefixes[0].ID
	if n := testing.AllocsPerRun(100, func() { cur.RouteForPrefix(c, p) }); n != 0 {
		t.Errorf("RouteForPrefix allocates %v times a call", n)
	}
}

// TestEventLogSortsLikeSortSlice holds the event log eventKeys builds to
// sort.Slice over the same events by bucket, then cloud, then BGP prefix,
// ties included: events drawn from a few buckets, clouds and BGP prefixes
// tie often, and each carries a distinct NewID, so a tie left in another
// order shows.
func TestEventLogSortsLikeSortSlice(t *testing.T) {
	const nClouds, nBGP = 3, 3
	r := rand.New(rand.NewSource(46))
	for _, n := range []int{0, 1, 2, 7, 12, 13, 49, 50, 51, 300, 5000} {
		want := make([]Event, n)
		segs := make([]segment, n)
		keys := make(eventKeys, n)
		for i := range want {
			e := Event{
				Bucket:    netmodel.Bucket(r.Intn(1 + n/8)),
				Cloud:     netmodel.CloudID(r.Intn(nClouds)),
				BGPPrefix: netmodel.BGPPrefixID(r.Intn(nBGP)),
				NewID:     netmodel.KeyID(i),
			}
			if r.Intn(2) == 0 {
				e.Kind = Withdraw
			}
			want[i], segs[i] = e, segment{From: e.Bucket, ID: e.NewID}
			entry := int(e.Cloud)*nBGP + int(e.BGPPrefix)
			keys[i] = eventKey{key: uint64(e.Bucket)*nClouds*nBGP + uint64(entry), seg: int32(i), withdraw: e.Kind == Withdraw}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := &want[i], &want[j]
			if a.Bucket != b.Bucket {
				return a.Bucket < b.Bucket
			}
			if a.Cloud != b.Cloud {
				return a.Cloud < b.Cloud
			}
			return a.BGPPrefix < b.BGPPrefix
		})
		got := keys.events(segs, nClouds*nBGP, nBGP)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d holds %+v, sort.Slice put %+v there", n, i, got[i], want[i])
			}
		}
	}
}
