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
	"slices"
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

// Event is one BGP routing event observed at a border router. It holds
// no pointer: NewID names the path the entry moves to.
type Event struct {
	Bucket    netmodel.Bucket
	Cloud     netmodel.CloudID
	BGPPrefix netmodel.BGPPrefixID
	Kind      EventKind
	// NewID is the table's KeyID of the new path's Key().
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

// segment records that a routing entry uses one of its routes from bucket
// From onward. ID is the KeyID of the path's Key(), interned once when the
// table is built: the passive phase groups every quartet by it, every
// bucket.
type segment struct {
	From  netmodel.Bucket
	ID    netmodel.KeyID
	route int32 // the path's index in the world's Routes of the entry
}

// Table is the simulated routing state over a fixed horizon of buckets. It
// is immutable once built, so any number of goroutines may read it.
type Table struct {
	world   *topology.World
	horizon netmodel.Bucket
	nBGP    int
	entries [][]segment // indexed cloud*nBGP + bgpPrefix, sorted by From
	events  []Event     // all events sorted by bucket
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
		entries: make([][]segment, len(w.Clouds)*len(w.BGPPrefixes)),
	}
	var buf [64]byte
	// ids caches the KeyID of each route of the entry being built, -1 until
	// the entry first reaches the route. Interning a key again returns the
	// ID it already has, so the IDs are those interning every segment gives.
	var ids []netmodel.KeyID
	id := func(routes []netmodel.Path, i int32) netmodel.KeyID {
		if ids[i] < 0 {
			ids[i] = t.keys.InternBytes(routes[i].AppendKey(buf[:0]))
		}
		return ids[i]
	}
	// Every entry's segments are appended to one slab, entry after entry;
	// ends[idx] is where entry idx's stop. An event is the segment it
	// starts: keys holds each one's place in the log, sorted once at the
	// end, and the index of its segment. Both are sized for the expected
	// number of events, which overshoots by 10–35 %; they hold no pointer,
	// so in a fresh process the capacity never filled is never touched.
	days := (int(horizon) + netmodel.BucketsPerDay - 1) / netmodel.BucketsPerDay
	expect := max(0, int(float64(len(t.entries)*days)*cfg.DailyChurnFraction*(1+cfg.RevertProb)))
	segs := make([]segment, 0, len(t.entries)+expect)
	ends := make([]int, len(t.entries))
	keys := make(eventKeys, 0, expect)
	event := func(idx int, withdraw bool) {
		seg := segs[len(segs)-1]
		keys = append(keys, eventKey{key: uint64(seg.From)*uint64(len(t.entries)) + uint64(idx), seg: int32(len(segs) - 1), withdraw: withdraw})
	}
	for _, c := range w.Clouds {
		for _, bp := range w.BGPPrefixes {
			idx := int(c.ID)*t.nBGP + int(bp.ID)
			routes := w.Routes(c.ID, bp.ID)
			ids = slices.Grow(ids[:0], len(routes))[:len(routes)]
			for i := range ids {
				ids[i] = -1
			}
			segs = append(segs, segment{From: 0, ID: id(routes, 0)})
			if len(routes) > 1 {
				for day := 0; day < days; day++ {
					if r.Float64() >= cfg.DailyChurnFraction {
						continue
					}
					at := netmodel.Bucket(day*netmodel.BucketsPerDay + r.Intn(netmodel.BucketsPerDay))
					if at >= horizon {
						continue
					}
					prev := segs[len(segs)-1]
					next := int32(1 + r.Intn(len(routes)-1)) // an alternate
					if routes[next].Equal(routes[prev.route]) {
						continue
					}
					withdraw := r.Float64() < cfg.WithdrawShare
					segs = append(segs, segment{From: at, ID: id(routes, next), route: next})
					event(idx, withdraw)
					if r.Float64() < cfg.RevertProb {
						back := at + netmodel.Bucket(1+r.Intn(netmodel.BucketsPerDay/2))
						if back < horizon && back > at {
							segs = append(segs, segment{From: back, ID: prev.ID, route: prev.route})
							event(idx, false)
						}
					}
				}
			}
			ends[idx] = len(segs)
		}
	}
	t.events = keys.events(segs, len(t.entries), t.nBGP)
	start := 0
	for idx, end := range ends {
		entry := segs[start:end:end]
		// Segments are appended in day order, so most entries are already
		// strictly increasing by From — sorted, with no tie a sort could
		// settle either way — and skip the reflective sort; only a revert
		// that lands on or after the next day's change needs it.
		if !strictlyIncreasing(entry) {
			sort.Slice(entry, func(i, j int) bool { return entry[i].From < entry[j].From })
		}
		t.entries[idx] = entry
		start = end
	}
	return t
}

// eventKey is an event's place in the log — its bucket, then its routing
// entry, as one number — the index of the segment it starts and its kind.
type eventKey struct {
	key      uint64
	seg      int32
	withdraw bool
}

// eventKeys orders events by bucket, then cloud, then BGP prefix. sort.Sort
// over it makes the same moves as sort.Slice over the events with the same
// order (one pattern-defeating quicksort), so ties land in the same places,
// each move a 16-byte copy.
type eventKeys []eventKey

// events sorts the keys and returns the event log they stand for, over
// the segments they index in a table of nEntries entries.
func (l eventKeys) events(segs []segment, nEntries, nBGP int) []Event {
	sort.Sort(l)
	out := make([]Event, len(l))
	for i, k := range l {
		seg, entry := segs[k.seg], int(k.key%uint64(nEntries))
		out[i] = Event{Bucket: seg.From, Cloud: netmodel.CloudID(entry / nBGP), BGPPrefix: netmodel.BGPPrefixID(entry % nBGP), NewID: seg.ID}
		if k.withdraw {
			out[i].Kind = Withdraw
		}
	}
	return out
}

func (l eventKeys) Len() int           { return len(l) }
func (l eventKeys) Swap(i, j int)      { l[i], l[j] = l[j], l[i] }
func (l eventKeys) Less(i, j int) bool { return l[i].key < l[j].key }

// strictlyIncreasing reports whether every segment starts after the one
// before it.
func strictlyIncreasing(entry []segment) bool {
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
	return t.world.Routes(c, bp)[entry[lo].route], entry[lo].ID
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
	seg := c.t.entries[idx][i]
	routes := c.t.world.Routes(netmodel.CloudID(idx/c.t.nBGP), netmodel.BGPPrefixID(idx%c.t.nBGP))
	c.seg[idx], c.paths[idx], c.ids[idx] = i, &routes[seg.route], seg.ID
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
