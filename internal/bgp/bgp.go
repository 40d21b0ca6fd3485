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
	"strings"

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
	// NewKey is NewPath.Key(), stored when the table was built.
	NewKey netmodel.MiddleKey
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
// Key is Path.Key(), formatted once when the table is built: the passive
// phase groups every quartet by it, every bucket.
type timedPath struct {
	From netmodel.Bucket
	Path netmodel.Path
	Key  netmodel.MiddleKey
}

// Table is the simulated routing state over a fixed horizon of buckets. It
// is immutable once built, so any number of goroutines may read it.
type Table struct {
	world   *topology.World
	horizon netmodel.Bucket
	nBGP    int
	entries [][]timedPath // indexed cloud*nBGP + bgpPrefix, sorted by From
	events  []Event       // all events sorted by bucket
}

// keyArena formats middle keys into shared chunks, so a table's thousands
// of keys cost a handful of allocations rather than one each. Keys are not
// deduplicated: nearly every routing entry has a path of its own.
type keyArena struct {
	chunk strings.Builder
}

// keyArenaChunk is the size of one arena chunk, a few thousand keys.
const keyArenaChunk = 64 << 10

// key returns p.Key() backed by the arena. A Builder only ever appends, so
// the bytes under a string it has handed out never change; a full chunk is
// left to the keys that point into it and a fresh one started.
func (a *keyArena) key(p netmodel.Path) netmodel.MiddleKey {
	var tmp [64]byte
	k := p.AppendKey(tmp[:0])
	if a.chunk.Cap()-a.chunk.Len() < len(k) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(keyArenaChunk, len(k)))
	}
	off := a.chunk.Len()
	a.chunk.Write(k)
	return netmodel.MiddleKey(a.chunk.String()[off:])
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
	var keys keyArena
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
			slab[idx] = timedPath{From: 0, Path: primary, Key: keys.key(primary)}
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
					nextKey := keys.key(next)
					entry = append(entry, timedPath{From: at, Path: next, Key: nextKey})
					t.events = append(t.events, Event{Bucket: at, Cloud: c.ID, BGPPrefix: bp.ID, Kind: kind, NewPath: next, NewKey: nextKey})
					if r.Float64() < cfg.RevertProb {
						back := at + netmodel.Bucket(1+r.Intn(netmodel.BucketsPerDay/2))
						if back < horizon && back > at {
							entry = append(entry, timedPath{From: back, Path: prev.Path, Key: prev.Key})
							t.events = append(t.events, Event{Bucket: back, Cloud: c.ID, BGPPrefix: bp.ID, Kind: Announce, NewPath: prev.Path, NewKey: prev.Key})
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
	sort.Slice(t.events, func(i, j int) bool {
		a, b := &t.events[i], &t.events[j]
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		if a.Cloud != b.Cloud {
			return a.Cloud < b.Cloud
		}
		return a.BGPPrefix < b.BGPPrefix
	})
	return t
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

// RouteAt returns the AS-level path in effect from cloud c to BGP prefix bp
// at the given bucket together with that path's MiddleKey. The key is the
// one stored with the route, so the call allocates nothing, and an entry
// that never churned is answered without a search.
func (t *Table) RouteAt(c netmodel.CloudID, bp netmodel.BGPPrefixID, b netmodel.Bucket) (netmodel.Path, netmodel.MiddleKey) {
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
	return entry[lo].Path, entry[lo].Key
}

// RouteAtForPrefix is RouteAt for a client /24: it resolves the /24 to its
// covering BGP prefix first.
func (t *Table) RouteAtForPrefix(c netmodel.CloudID, p netmodel.PrefixID, b netmodel.Bucket) (netmodel.Path, netmodel.MiddleKey) {
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

// TotalEvents returns the number of churn events over the horizon.
func (t *Table) TotalEvents() int { return len(t.events) }

// EntriesChurnedOnDay counts distinct (cloud, BGP prefix) entries with at
// least one event on the given day.
func (t *Table) EntriesChurnedOnDay(day int) int {
	from := netmodel.Bucket(day * netmodel.BucketsPerDay)
	to := from + netmodel.BucketsPerDay
	seen := make(map[[2]int]bool)
	for _, e := range t.Events(from, to) {
		seen[[2]int{int(e.Cloud), int(e.BGPPrefix)}] = true
	}
	return len(seen)
}

// NumEntries returns the number of routing entries (clouds × BGP prefixes).
func (t *Table) NumEntries() int { return len(t.entries) }

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
