// Package bgp provides the BGP substrate of the reproduction: a routing
// table holding the AS-level path from every cloud location to every BGP
// prefix over simulated time, a deterministic route-churn process, and a
// listener that surfaces path-change and withdrawal events the way the
// paper's IBGP-connected BGP listener does (§5.4).
//
// The churn process is rate-matched to the paper's observation that nearly
// two-thirds of the BGP paths at the border routers see no churn in an
// entire day.
package bgp

import (
	"math/rand"
	"sort"

	"blameit/internal/netmodel"
	"blameit/internal/topology"
)

// EventKind distinguishes the two route events the listener reports.
type EventKind int

const (
	// Announce is a path change: the entry now routes via NewPath.
	Announce EventKind = iota
	// Withdraw is a route withdrawal; traffic falls back to NewPath.
	Withdraw
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case Announce:
		return "announce"
	case Withdraw:
		return "withdraw"
	default:
		return "unknown"
	}
}

// Event is one BGP routing event observed at a border router.
type Event struct {
	Bucket    netmodel.Bucket
	Cloud     netmodel.CloudID
	BGPPrefix netmodel.BGPPrefixID
	Kind      EventKind
	NewPath   netmodel.Path
	// NewID is the table's KeyID of NewPath.Key().
	NewID netmodel.KeyID
}

// ChurnConfig parameterizes the synthetic churn process.
type ChurnConfig struct {
	// DailyChurnFraction is the probability that a given (cloud, BGP
	// prefix) entry sees at least one route change on a given day. The
	// paper reports ~1/3 of paths churn per day.
	DailyChurnFraction float64
	// WithdrawShare is the fraction of churn events that are withdrawals
	// rather than path changes.
	WithdrawShare float64
	// RevertProb is the probability a churned entry reverts to its previous
	// path later the same day.
	RevertProb float64
}

// DefaultChurnConfig matches the paper's reported churn rate.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{DailyChurnFraction: 1.0 / 3.0, WithdrawShare: 0.15, RevertProb: 0.5}
}

// timedPath records that a routing entry uses Path from bucket From onward.
// ID is the KeyID of Path.Key(), interned once when the table is built: the
// passive phase groups every quartet by it, every bucket.
type timedPath struct {
	From netmodel.Bucket
	Path netmodel.Path
	ID   netmodel.KeyID
}

// Table is the simulated routing state over a fixed horizon of buckets. It
// is immutable once built, so any number of goroutines may read it.
type Table struct {
	world   *topology.World
	horizon netmodel.Bucket
	nBGP    int
	entries [][]timedPath // indexed cloud*nBGP + bgpPrefix, sorted by From
	events  []Event       // all events sorted by bucket
	// keys interns every distinct middle key of every segment, in build
	// order: entries cloud by cloud and BGP prefix by BGP prefix, each
	// entry's segments as the churn process draws them. The IDs are
	// therefore a function of the world, the churn config and the seed.
	keys netmodel.KeySpace
}

// NewTable builds the routing table for [0, horizon) buckets, generating a
// deterministic churn schedule from the seed.
func NewTable(w *topology.World, cfg ChurnConfig, horizon netmodel.Bucket, seed int64) *Table {
	r := rand.New(rand.NewSource(seed))
	t := &Table{
		world:   w,
		horizon: horizon,
		nBGP:    len(w.BGPPrefixes),
		entries: make([][]timedPath, len(w.Clouds)*len(w.BGPPrefixes)),
	}
	var buf [64]byte
	intern := func(p netmodel.Path) netmodel.KeyID { return t.keys.InternBytes(p.AppendKey(buf[:0])) }
	// Every entry starts as one segment of this slab; an entry that churns
	// outgrows its slot's capacity and moves to a slice of its own.
	slab := make([]timedPath, len(t.entries))
	days := (int(horizon) + netmodel.BucketsPerDay - 1) / netmodel.BucketsPerDay
	// Room for the expected number of events, so the log is not copied
	// over and over as it doubles.
	if expect := float64(len(t.entries)*days) * cfg.DailyChurnFraction * (1 + cfg.RevertProb); expect > 0 {
		t.events = make([]Event, 0, int(expect))
	}
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			idx := int(c.ID)*t.nBGP + int(bp.ID)
			primary := w.InitialPath(c.ID, bp.ID)
			slab[idx] = timedPath{From: 0, Path: primary, ID: intern(primary)}
			entry := slab[idx : idx+1 : idx+1]
			alts := w.AltPaths(c.ID, bp.ID)
			if len(alts) > 0 {
				for day := 0; day < days; day++ {
					if r.Float64() >= cfg.DailyChurnFraction {
						continue
					}
					at := netmodel.Bucket(day*netmodel.BucketsPerDay + r.Intn(netmodel.BucketsPerDay))
					if at >= horizon {
						continue
					}
					prev := entry[len(entry)-1]
					next := alts[r.Intn(len(alts))]
					if next.Equal(prev.Path) {
						continue
					}
					kind := Announce
					if r.Float64() < cfg.WithdrawShare {
						kind = Withdraw
					}
					nextID := intern(next)
					entry = append(entry, timedPath{From: at, Path: next, ID: nextID})
					t.events = append(t.events, Event{Bucket: at, Cloud: c.ID, BGPPrefix: bp.ID, Kind: kind, NewPath: next, NewID: nextID})
					if r.Float64() < cfg.RevertProb {
						back := at + netmodel.Bucket(1+r.Intn(netmodel.BucketsPerDay/2))
						if back < horizon && back > at {
							entry = append(entry, timedPath{From: back, Path: prev.Path, ID: prev.ID})
							t.events = append(t.events, Event{Bucket: back, Cloud: c.ID, BGPPrefix: bp.ID, Kind: Announce, NewPath: prev.Path, NewID: prev.ID})
						}
					}
				}
			}
			// Segments are appended in day order, so most entries are
			// already strictly increasing by From — sorted, with no tie a
			// sort could settle either way — and skip the reflective sort;
			// only a revert that lands on or after the next day's change
			// needs it.
			if !strictlyIncreasing(entry) {
				sort.Slice(entry, func(i, j int) bool { return entry[i].From < entry[j].From })
			}
			t.entries[idx] = entry
		}
	}
	sort.Sort(eventLog(t.events))
	return t
}

// eventLog orders events by bucket, then cloud, then BGP prefix. sort.Sort
// over it makes the same moves as sort.Slice with the same order (one
// pattern-defeating quicksort), so ties land in the same places, with a
// plain assignment where sort.Slice swaps through reflection.
type eventLog []Event

func (l eventLog) Len() int      { return len(l) }
func (l eventLog) Swap(i, j int) { l[i], l[j] = l[j], l[i] }
func (l eventLog) Less(i, j int) bool {
	a, b := &l[i], &l[j]
	if a.Bucket != b.Bucket {
		return a.Bucket < b.Bucket
	}
	if a.Cloud != b.Cloud {
		return a.Cloud < b.Cloud
	}
	return a.BGPPrefix < b.BGPPrefix
}

// strictlyIncreasing reports whether every segment starts after the one
// before it.
func strictlyIncreasing(entry []timedPath) bool {
	for i := 1; i < len(entry); i++ {
		if entry[i].From <= entry[i-1].From {
			return false
		}
	}
	return true
}

// Horizon returns the exclusive upper bound of buckets the table covers.
func (t *Table) Horizon() netmodel.Bucket { return t.horizon }

// Keys returns the table's key space. It is complete once NewTable returns
// and must not be interned into.
func (t *Table) Keys() *netmodel.KeySpace { return &t.keys }

// NumKeys returns the number of distinct middle keys: every KeyID the
// table hands out is in [0, NumKeys).
func (t *Table) NumKeys() int { return t.keys.Len() }

// Key returns the middle key the table interned as id.
func (t *Table) Key(id netmodel.KeyID) netmodel.MiddleKey { return t.keys.Key(id) }

// RouteAt returns the AS-level path in effect from cloud c to BGP prefix bp
// at the given bucket together with the KeyID of that path's MiddleKey.
// The call allocates nothing, and an entry that never churned is answered
// without a search.
func (t *Table) RouteAt(c netmodel.CloudID, bp netmodel.BGPPrefixID, b netmodel.Bucket) (netmodel.Path, netmodel.KeyID) {
	entry := t.entries[int(c)*t.nBGP+int(bp)]
	// The last segment with From <= b, or the first when there is none.
	lo, hi := 0, len(entry)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if entry[mid].From <= b {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return entry[lo].Path, entry[lo].ID
}

// RouteAtForPrefix is RouteAt for a client /24: it resolves the /24 to its
// covering BGP prefix first.
func (t *Table) RouteAtForPrefix(c netmodel.CloudID, p netmodel.PrefixID, b netmodel.Bucket) (netmodel.Path, netmodel.KeyID) {
	return t.RouteAt(c, t.world.Prefixes[p].BGPPrefix, b)
}

// PathAt returns the AS-level path in effect from cloud c to BGP prefix bp
// at the given bucket.
func (t *Table) PathAt(c netmodel.CloudID, bp netmodel.BGPPrefixID, b netmodel.Bucket) netmodel.Path {
	path, _ := t.RouteAt(c, bp, b)
	return path
}

// PathAtForPrefix resolves a client /24 to its covering BGP prefix and
// returns the path in effect.
func (t *Table) PathAtForPrefix(c netmodel.CloudID, p netmodel.PrefixID, b netmodel.Bucket) netmodel.Path {
	return t.PathAt(c, t.world.Prefixes[p].BGPPrefix, b)
}

// Events returns all events with from <= bucket < to, in order.
func (t *Table) Events(from, to netmodel.Bucket) []Event {
	lo := sort.Search(len(t.events), func(i int) bool { return t.events[i].Bucket >= from })
	hi := sort.Search(len(t.events), func(i int) bool { return t.events[i].Bucket >= to })
	return t.events[lo:hi]
}

// Cursor follows the table bucket by bucket for one reader: Seek moves it
// to a bucket, after which RouteForPrefix answers from two dense per-entry
// columns where RouteAt searches the entry's segments on every call. A
// forward Seek re-resolves only the entries the event log says change on
// the way; a backward Seek starts over from the first segments. The table
// behind a cursor stays shared and immutable; the cursor itself is not
// safe for concurrent use.
type Cursor struct {
	t    *Table
	at   netmodel.Bucket
	next int // the first event after `at`
	// Per entry, the segment in effect at `at`: its index, and its path
	// and key ID as RouteForPrefix hands them out.
	seg   []int32
	paths []*netmodel.Path
	ids   []netmodel.KeyID
}

// NewCursor returns a cursor over the table. Seek it before reading.
func (t *Table) NewCursor() *Cursor {
	n := len(t.entries)
	c := &Cursor{t: t, seg: make([]int32, n), paths: make([]*netmodel.Path, n), ids: make([]netmodel.KeyID, n)}
	c.rewind()
	return c
}

// set puts entry idx on its segment i.
func (c *Cursor) set(idx int, i int32) {
	seg := &c.t.entries[idx][i]
	c.seg[idx], c.paths[idx], c.ids[idx] = i, &seg.Path, seg.ID
}

// rewind puts every entry on its first segment, before any event.
func (c *Cursor) rewind() {
	for idx := range c.t.entries {
		c.set(idx, 0)
	}
	c.at, c.next = -1, 0
}

// Seek moves the cursor to bucket b: every route then read is the one
// RouteAt returns at b.
func (c *Cursor) Seek(b netmodel.Bucket) {
	if b < c.at {
		c.rewind()
	}
	evs := c.t.events
	for ; c.next < len(evs) && evs[c.next].Bucket <= b; c.next++ {
		idx := int(evs[c.next].Cloud)*c.t.nBGP + int(evs[c.next].BGPPrefix)
		entry := c.t.entries[idx]
		i := c.seg[idx]
		for int(i)+1 < len(entry) && entry[i+1].From <= b {
			i++
		}
		c.set(idx, i)
	}
	c.at = b
}

// RouteForPrefix is RouteAtForPrefix at the cursor's bucket, without
// reading the route: the path comes back as a pointer into the table,
// which the caller must not modify.
func (c *Cursor) RouteForPrefix(cl netmodel.CloudID, p netmodel.PrefixID) (*netmodel.Path, netmodel.KeyID) {
	idx := int(cl)*c.t.nBGP + int(c.t.world.Prefixes[p].BGPPrefix)
	return c.paths[idx], c.ids[idx]
}

// Listener consumes routing events incrementally, the way BlameIt's BGP
// listener tails the border routers. It is a cursor over the table's event
// log.
type Listener struct {
	table *Table
	next  int
}

// NewListener creates a listener positioned at the start of the event log.
func NewListener(t *Table) *Listener {
	return &Listener{table: t}
}

// Poll returns all events with bucket < upTo that have not been returned
// before, advancing the cursor.
func (l *Listener) Poll(upTo netmodel.Bucket) []Event {
	evs := l.table.events
	start := l.next
	for l.next < len(evs) && evs[l.next].Bucket < upTo {
		l.next++
	}
	return evs[start:l.next]
}
