// Package trace defines the passive measurement records that flow from the
// cloud locations to the analytics cluster, and models the collection
// pipeline of §6.1 of the paper: the two telemetry streams joined by
// request id, and the hourly storage buckets whose loss of temporal
// ordering BlameIt's periodic job has to work around.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"blameit/internal/netmodel"
)

// Observation is one quartet-level passive measurement: the aggregate of
// TCP handshake RTTs from one /24 to one cloud location in one 5-minute
// bucket, split by device class.
type Observation struct {
	Prefix  netmodel.PrefixID    `json:"prefix"`
	Cloud   netmodel.CloudID     `json:"cloud"`
	Device  netmodel.DeviceClass `json:"device"`
	Bucket  netmodel.Bucket      `json:"bucket"`
	Samples int                  `json:"samples"`
	MeanRTT float64              `json:"mean_rtt_ms"`
	// Clients is the number of distinct client IPs behind the samples.
	Clients int `json:"clients"`
}

// WriteJSONL writes observations as JSON Lines.
func WriteJSONL(w io.Writer, obs []Observation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range obs {
		if err := enc.Encode(&obs[i]); err != nil {
			return fmt.Errorf("trace: encoding observation %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads observations from JSON Lines until EOF. Decode errors
// identify the failing record by index and byte offset.
func ReadJSONL(r io.Reader) ([]Observation, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []Observation
	for {
		var o Observation
		if err := dec.Decode(&o); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding observation %d (byte offset %d): %w", len(out), dec.InputOffset(), err)
		}
		out = append(out, o)
	}
}

// RTTRecord is the latency half of the raw telemetry: cloud servers log the
// handshake RTT keyed by a request id.
type RTTRecord struct {
	RequestID uint64               `json:"request_id"`
	Cloud     netmodel.CloudID     `json:"cloud"`
	Bucket    netmodel.Bucket      `json:"bucket"`
	Device    netmodel.DeviceClass `json:"device"`
	Samples   int                  `json:"samples"`
	MeanRTT   float64              `json:"mean_rtt_ms"`
}

// ClientRecord is the identity half: the client IP (here its /24 and client
// count) keyed by the same request id. The production pipeline had to join
// the two streams daily until the RTT stream was extended to carry the
// client IP (§6.1).
type ClientRecord struct {
	RequestID uint64            `json:"request_id"`
	Prefix    netmodel.PrefixID `json:"prefix"`
	Clients   int               `json:"clients"`
}

// WriteRTTJSONL writes the RTT telemetry stream as JSON Lines.
func WriteRTTJSONL(w io.Writer, recs []RTTRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("trace: encoding rtt record %d (request id %d): %w", i, recs[i].RequestID, err)
		}
	}
	return bw.Flush()
}

// ReadRTTJSONL reads the RTT telemetry stream until EOF. Decode errors name
// the last successfully read request id to anchor the failure in the stream.
func ReadRTTJSONL(r io.Reader) ([]RTTRecord, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []RTTRecord
	for {
		var rec RTTRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding rtt record %d (after request id %d, byte offset %d): %w",
				len(out), lastRequestID(out), dec.InputOffset(), err)
		}
		out = append(out, rec)
	}
}

// WriteClientJSONL writes the client-identity telemetry stream as JSON Lines.
func WriteClientJSONL(w io.Writer, recs []ClientRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("trace: encoding client record %d (request id %d): %w", i, recs[i].RequestID, err)
		}
	}
	return bw.Flush()
}

// ReadClientJSONL reads the client-identity stream until EOF. Decode errors
// name the last successfully read request id to anchor the failure.
func ReadClientJSONL(r io.Reader) ([]ClientRecord, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []ClientRecord
	for {
		var rec ClientRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding client record %d (after request id %d, byte offset %d): %w",
				len(out), lastClientRequestID(out), dec.InputOffset(), err)
		}
		out = append(out, rec)
	}
}

func lastRequestID(recs []RTTRecord) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].RequestID
}

func lastClientRequestID(recs []ClientRecord) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].RequestID
}

// Split separates observations into the two raw telemetry streams,
// assigning sequential request ids.
func Split(obs []Observation) ([]RTTRecord, []ClientRecord) {
	rtts := make([]RTTRecord, len(obs))
	clients := make([]ClientRecord, len(obs))
	for i, o := range obs {
		id := uint64(i) + 1
		rtts[i] = RTTRecord{RequestID: id, Cloud: o.Cloud, Bucket: o.Bucket, Device: o.Device, Samples: o.Samples, MeanRTT: o.MeanRTT}
		clients[i] = ClientRecord{RequestID: id, Prefix: o.Prefix, Clients: o.Clients}
	}
	return rtts, clients
}

// Join reassembles observations from the two streams by request id,
// dropping records without a counterpart (as the daily production join
// does). Under duplicate request ids the FIRST record wins on both sides:
// collectors retransmit on flaky links, and first-wins keeps the join
// deterministic regardless of how retransmissions interleave in either
// stream — later duplicates are dropped, never merged.
func Join(rtts []RTTRecord, clients []ClientRecord) []Observation {
	byID := make(map[uint64]ClientRecord, len(clients))
	for _, c := range clients {
		if _, dup := byID[c.RequestID]; dup {
			continue
		}
		byID[c.RequestID] = c
	}
	out := make([]Observation, 0, len(rtts))
	seen := make(map[uint64]bool, len(rtts))
	for _, r := range rtts {
		c, ok := byID[r.RequestID]
		if !ok || seen[r.RequestID] {
			continue
		}
		seen[r.RequestID] = true
		out = append(out, Observation{
			Prefix: c.Prefix, Cloud: r.Cloud, Device: r.Device, Bucket: r.Bucket,
			Samples: r.Samples, MeanRTT: r.MeanRTT, Clients: c.Clients,
		})
	}
	return out
}

// storageBucket holds one storage bucket's records in struct-of-arrays
// form: the arrival sequence numbers and the observations live in parallel
// slices. Writes append, so each bucket is a presorted run by sequence
// number — windowed reads restore collector arrival order by merging the
// runs instead of re-sorting every matching record (the per-read
// sort.Slice this layout replaced dominated the scan cost). Arrival order
// is what downstream consumers (and trace replay) depend on for
// determinism, and the split layout keeps the seq scan cache-dense.
type storageBucket struct {
	seqs []uint64
	obs  []Observation
}

// runCursor is one storage bucket's position in the read-side merge.
type runCursor struct {
	bkt *storageBucket
	i   int
}

// Store models the analytics cluster's ingestion quirk from §6.1: every
// window (one hour in production) a fresh set of storage buckets is
// created and each record lands in a pseudo-random bucket, losing temporal
// ordering within the window. A reader that wants the last 15 minutes must
// scan every storage bucket of the window and filter. The paper notes the
// team was "currently working on creating finer buckets"; WindowBuckets
// implements that follow-up — shrinking the window cuts the scan cost of
// the 15-minute job proportionally (see TestFinerWindowsCutScanCost).
//
// Reads return records in arrival order (each record carries an ingestion
// sequence number that survives the scatter), so a store-backed pipeline
// sees exactly the stream the collector wrote.
//
// A Store is NOT safe for concurrent use: Write mutates the window maps
// and ReadWindow updates the scan counters. The simulator's parallel
// generation paths merge their per-shard buffers into one ordered slice
// before anything is written here, so single-writer ingestion is the
// natural calling convention.
type Store struct {
	bucketsPerWindow int
	windowLen        netmodel.Bucket // ingestion window length in 5-min buckets
	windows          map[int][]storageBucket
	nextSeq          uint64
	reads            int         // storage buckets scanned (for the inefficiency metric)
	recordsScanned   int         // records examined, including filtered-out ones
	retention        int         // windows kept behind the read frontier; 0 = unbounded
	evictBelow       int         // all windows < evictBelow have been dropped
	evicted          int         // total windows evicted so far
	cursors          []runCursor // read-side merge scratch, reused across reads
}

// NewStore creates a store with the given number of storage buckets per
// hour-long ingestion window (the production layout).
func NewStore(bucketsPerWindow int) *Store {
	return NewStoreWindow(bucketsPerWindow, netmodel.BucketsPerHour)
}

// NewStoreWindow creates a store with an explicit ingestion-window length,
// implementing the §6.1 "finer buckets" follow-up.
func NewStoreWindow(bucketsPerWindow int, windowLen netmodel.Bucket) *Store {
	if bucketsPerWindow <= 0 {
		bucketsPerWindow = 8
	}
	if windowLen < 1 {
		windowLen = netmodel.BucketsPerHour
	}
	return &Store{
		bucketsPerWindow: bucketsPerWindow,
		windowLen:        windowLen,
		windows:          make(map[int][]storageBucket),
	}
}

// SetRetention bounds the store's memory for long runs: after each read,
// ingestion windows more than n windows behind the read frontier are
// evicted. The periodic job reads forward through time, so anything that
// far behind has already been consumed. n <= 0 disables eviction (the
// default — a store used for ad-hoc historical queries must keep
// everything).
func (s *Store) SetRetention(n int) {
	if n < 0 {
		n = 0
	}
	s.retention = n
}

// NumWindows reports how many ingestion windows are currently resident.
func (s *Store) NumWindows() int { return len(s.windows) }

// EvictedWindows reports how many ingestion windows retention has dropped.
func (s *Store) EvictedWindows() int { return s.evicted }

// windowOf maps a 5-minute bucket to its ingestion-window index.
func (s *Store) windowOf(b netmodel.Bucket) int { return int(b / s.windowLen) }

// Write ingests observations, scattering them across the window's storage
// buckets. Writes into windows already evicted by retention are dropped —
// the production cluster, too, rejects stragglers for closed windows.
func (s *Store) Write(obs []Observation) {
	for _, o := range obs {
		h := s.windowOf(o.Bucket)
		if h < s.evictBelow {
			continue
		}
		hb, ok := s.windows[h]
		if !ok {
			hb = make([]storageBucket, s.bucketsPerWindow)
			s.windows[h] = hb
		}
		// Pseudo-random but deterministic scatter. The modulo is taken in
		// uint64: converting the hash to int first goes negative once the
		// product exceeds MaxInt64 (large PrefixIDs), and a negative index
		// panics. For hashes below MaxInt64 the two forms agree, so the
		// scatter of every existing trace is unchanged.
		i := int((uint64(o.Prefix)*2654435761 + uint64(o.Cloud)*40503 + uint64(o.Bucket)) % uint64(s.bucketsPerWindow))
		hb[i].seqs = append(hb[i].seqs, s.nextSeq)
		hb[i].obs = append(hb[i].obs, o)
		s.nextSeq++
	}
}

// ReadWindow returns all observations with from <= bucket < to, in arrival
// order. See ReadWindowAppend.
func (s *Store) ReadWindow(from, to netmodel.Bucket) []Observation {
	return s.ReadWindowAppend(from, to, nil)
}

// ReadWindowAppend appends all observations with from <= bucket < to onto
// buf, in arrival order, and returns the extended slice. It scans every
// storage bucket of each overlapped ingestion window (counted in
// ScannedBuckets) and filters, exactly as BlameIt's 15-minute job must.
// An empty or inverted range (to <= from) reads nothing and scans nothing.
// If a retention horizon is set, windows that fall behind it afterwards
// are evicted.
//
// Each storage bucket is a presorted run by sequence number (writes only
// append), so arrival order is restored by a k-way merge over the runs —
// no per-read global sort, and the only allocation in steady state is
// whatever growth buf itself needs.
func (s *Store) ReadWindowAppend(from, to netmodel.Bucket, buf []Observation) []Observation {
	if to <= from {
		return buf
	}
	if from < 0 {
		from = 0
	}
	if to <= from {
		return buf
	}
	cursors := s.cursors[:0]
	hi := s.windowOf(to - 1)
	for h := s.windowOf(from); h <= hi; h++ {
		hb, ok := s.windows[h]
		if !ok {
			continue
		}
		for bi := range hb {
			bkt := &hb[bi]
			s.reads++
			s.recordsScanned += len(bkt.obs)
			c := runCursor{bkt: bkt}
			if c.skipFiltered(from, to) {
				cursors = append(cursors, c)
			}
		}
	}
	// The scatter destroyed arrival order; merging the runs on their
	// sequence numbers restores it. The run count is small (storage buckets
	// per window x overlapped windows), so a linear min-scan per emitted
	// record beats heap bookkeeping.
	live := len(cursors)
	for len(cursors) > 0 {
		min := 0
		for ci := 1; ci < len(cursors); ci++ {
			if cursors[ci].bkt.seqs[cursors[ci].i] < cursors[min].bkt.seqs[cursors[min].i] {
				min = ci
			}
		}
		c := &cursors[min]
		buf = append(buf, c.bkt.obs[c.i])
		c.i++
		if !c.skipFiltered(from, to) {
			cursors[min] = cursors[len(cursors)-1]
			cursors = cursors[:len(cursors)-1]
		}
	}
	// Drop the bucket pointers before parking the scratch: a stale cursor
	// must not pin an evicted window's slices in memory.
	clear(cursors[:live])
	s.cursors = cursors[:0]
	if s.retention > 0 {
		s.evictBehind(hi)
	}
	return buf
}

// skipFiltered advances the cursor to its run's next record inside
// [from, to), reporting whether one exists.
func (c *runCursor) skipFiltered(from, to netmodel.Bucket) bool {
	for c.i < len(c.bkt.obs) {
		if b := c.bkt.obs[c.i].Bucket; b >= from && b < to {
			return true
		}
		c.i++
	}
	return false
}

// evictBehind drops every resident window at or below frontier-retention.
func (s *Store) evictBehind(frontier int) {
	low := frontier - s.retention + 1
	if low <= s.evictBelow {
		return
	}
	for h := range s.windows {
		if h < low {
			delete(s.windows, h)
			s.evicted++
		}
	}
	s.evictBelow = low
}

// ScannedBuckets reports how many storage buckets all reads so far have
// scanned.
func (s *Store) ScannedBuckets() int { return s.reads }

// ScannedRecords reports how many records all reads so far have examined,
// including records outside the requested window — the real cost of the
// coarse ingestion layout.
func (s *Store) ScannedRecords() int { return s.recordsScanned }
