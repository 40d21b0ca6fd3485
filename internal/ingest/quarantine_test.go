package ingest

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

func obsAt(p netmodel.PrefixID, c netmodel.CloudID, d netmodel.DeviceClass, b netmodel.Bucket) trace.Observation {
	return trace.Observation{Prefix: p, Cloud: c, Device: d, Bucket: b, Samples: 20, MeanRTT: 50, Clients: 10}
}

func TestQuarantineFilterReasons(t *testing.T) {
	q := NewQuarantine(100, 4)
	late := obsAt(1, 0, 0, 4) // wrong bucket
	nan := obsAt(2, 0, 0, 5)
	nan.MeanRTT = math.NaN()
	inf := obsAt(3, 0, 0, 5)
	inf.MeanRTT = math.Inf(1)
	neg := obsAt(4, 0, 0, 5)
	neg.MeanRTT = -1
	negSamples := obsAt(5, 0, 0, 5)
	negSamples.Samples = -3
	unknownPrefix := obsAt(100, 0, 0, 5) // == numPrefixes, out of range
	unknownCloud := obsAt(6, 4, 0, 5)
	unknownDevice := obsAt(8, 0, netmodel.DeviceClass(netmodel.NumDeviceClasses), 5)
	negDevice := obsAt(9, 0, -1, 5)
	good := obsAt(7, 0, 0, 5)
	dup := good // same identity, same bucket

	in := []trace.Observation{late, nan, inf, neg, negSamples, unknownPrefix, unknownCloud, unknownDevice, negDevice, good, dup}
	out := q.Filter(5, in)
	if len(out) != 1 || out[0].Prefix != 7 {
		t.Fatalf("Filter kept %v, want only prefix 7", out)
	}
	if got := q.Count(ReasonLate); got != 1 {
		t.Errorf("late count = %d, want 1", got)
	}
	if got := q.Count(ReasonCorrupt); got != 8 {
		t.Errorf("corrupt count = %d, want 8", got)
	}
	if got := q.Count(ReasonDuplicate); got != 1 {
		t.Errorf("duplicate count = %d, want 1", got)
	}
	if got := q.Total(); got != 10 {
		t.Errorf("total = %d, want 10", got)
	}
	if s := q.String(); !strings.Contains(s, "corrupt=8") {
		t.Errorf("String() = %q, want corrupt=8", s)
	}
}

func TestQuarantineDedupeResetsPerBucket(t *testing.T) {
	q := NewQuarantine(10, 2)
	// Same identity in two different buckets is NOT a duplicate.
	if out := q.Filter(1, []trace.Observation{obsAt(1, 0, 0, 1)}); len(out) != 1 {
		t.Fatalf("bucket 1 rejected a clean record")
	}
	if out := q.Filter(2, []trace.Observation{obsAt(1, 0, 0, 2)}); len(out) != 1 {
		t.Fatalf("bucket 2 rejected a record seen in bucket 1")
	}
	// A duplicate in bucket 2 does not make the record one in bucket 3.
	if out := q.Filter(2, []trace.Observation{obsAt(1, 0, 0, 2)}); len(out) != 0 {
		t.Fatalf("bucket 2 kept a duplicate")
	}
	if out := q.Filter(3, []trace.Observation{obsAt(1, 0, 0, 3)}); len(out) != 1 {
		t.Fatalf("bucket 3 rejected a record duplicated in bucket 2")
	}
	// Different device classes are distinct identities.
	out := q.Filter(4, []trace.Observation{obsAt(1, 0, 0, 4), obsAt(1, 0, 1, 4)})
	if len(out) != 2 {
		t.Fatalf("distinct device classes deduped: kept %d", len(out))
	}
	if q.Total() != 1 || q.Count(ReasonDuplicate) != 1 {
		t.Fatalf("want only the one duplicate quarantined: %s", q.String())
	}
}

// TestQuarantineEpochWraps: when the per-bucket epoch runs out, the stamp
// array is cleared and numbering restarts, so a stamp left from the
// previous round (here: epoch 1, which the restart reuses) is not taken
// for a duplicate, and duplicates are still caught on both sides.
func TestQuarantineEpochWraps(t *testing.T) {
	q := NewQuarantine(10, 2)
	x, y := obsAt(1, 0, 0, 0), obsAt(2, 1, 1, 0)
	if out := q.Filter(0, []trace.Observation{x}); len(out) != 1 || q.epoch != 1 {
		t.Fatalf("bucket 0: kept %d at epoch %d", len(out), q.epoch)
	}
	q.epoch = math.MaxUint32 - 1
	y.Bucket = 1
	if out := q.Filter(1, []trace.Observation{y, y}); len(out) != 1 || q.epoch != math.MaxUint32 {
		t.Fatalf("bucket 1: kept %d of a record and its duplicate at epoch %d", len(out), q.epoch)
	}
	x.Bucket, y.Bucket = 2, 2
	if out := q.Filter(2, []trace.Observation{x, y, y}); len(out) != 2 || q.epoch != 1 {
		t.Fatalf("bucket 2 after the wrap: kept %v at epoch %d, want x and y at epoch 1", out, q.epoch)
	}
	for i, st := range q.stamps {
		if want := i == q.slot(x) || i == q.slot(y); (st == 1) != want || (st != 0 && st != 1) {
			t.Fatalf("stamp %d = %d after the wrap", i, st)
		}
	}
	if q.Count(ReasonDuplicate) != 2 || q.Total() != 2 {
		t.Fatalf("want the two duplicates quarantined: %s", q.String())
	}
}

// TestQuarantineStampsLazy: the dedup array is the first Filter's to
// allocate, so a quarantine that only ever takes rejected lines (the
// daemon frontend's) holds none.
func TestQuarantineStampsLazy(t *testing.T) {
	q := NewQuarantine(1000, 8)
	q.RejectLine([]byte("not json"), 0)
	if q.stamps != nil {
		t.Fatalf("stamps allocated before Filter: %d", len(q.stamps))
	}
	q.Filter(0, []trace.Observation{obsAt(1, 0, 0, 0)})
	if want := 1000 * 8 * netmodel.NumDeviceClasses; len(q.stamps) != want {
		t.Fatalf("stamps has %d slots after Filter, want %d", len(q.stamps), want)
	}
}

func TestQuarantineMetricsLazy(t *testing.T) {
	reg := metrics.NewRegistry()
	q := NewQuarantine(10, 2)
	q.SetMetrics(reg)
	// Nothing rejected yet: no quarantine counters may exist (the golden
	// metric snapshot must not change when the data plane is healthy).
	for _, nv := range reg.Snapshot().Counters {
		if strings.HasPrefix(nv.Name, "ingest.quarantine.") {
			t.Fatalf("counter %s registered before any rejection", nv.Name)
		}
	}
	q.Filter(5, []trace.Observation{obsAt(1, 0, 0, 4)})
	if v, ok := reg.Snapshot().Counter("ingest.quarantine.late"); !ok || v != 1 {
		t.Fatalf("ingest.quarantine.late = %d (ok=%v), want 1", v, ok)
	}
	if _, ok := reg.Snapshot().Counter("ingest.quarantine.corrupt"); ok {
		t.Fatal("untouched reason registered a counter")
	}
}

func TestQuarantineRecentRing(t *testing.T) {
	q := NewQuarantine(10, 2)
	for i := 0; i < recentCap+5; i++ {
		q.Reject(obsAt(netmodel.PrefixID(i%10), 0, 0, 99), ReasonLate, 0)
	}
	rec := q.Recent()
	if len(rec) != recentCap {
		t.Fatalf("Recent() returned %d entries, want %d", len(rec), recentCap)
	}
	// Oldest-first: the first retained rejection is #5.
	if rec[0].Obs.Prefix != 5 {
		t.Errorf("Recent()[0].Obs.Prefix = %d, want 5", rec[0].Obs.Prefix)
	}
	if last := rec[len(rec)-1]; last.Obs.Prefix != netmodel.PrefixID((recentCap+4)%10) {
		t.Errorf("Recent() last prefix = %d, want %d", last.Obs.Prefix, (recentCap+4)%10)
	}
}

// TestQuarantineRejectLineBounded: a full ring of rejected 4 MiB lines —
// salvage-mode POSTs can hand it lines up to the body limit — retains
// their bounded prefixes, not the lines.
func TestQuarantineRejectLineBounded(t *testing.T) {
	q := NewQuarantine(10, 2)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := 0; i < recentCap; i++ {
		q.RejectLine(bytes.Repeat([]byte{'x'}, 4<<20), 0)
	}
	if grew := heap() - before; grew > 1<<20 {
		t.Fatalf("%d rejected 4 MiB lines retain %d bytes, want under 1 MiB", recentCap, grew)
	}
	if rec := q.Recent(); len(rec) != recentCap || len(rec[0].Line) != maxRejectedLine {
		t.Fatalf("ring holds %d lines, the first %d bytes long; want %d of %d", len(rec), len(rec[0].Line), recentCap, maxRejectedLine)
	}
}

func TestTransientError(t *testing.T) {
	base := context.DeadlineExceeded
	if IsTransient(base) {
		t.Error("plain error reported transient")
	}
	wrapped := Transient(base)
	if !IsTransient(wrapped) {
		t.Error("Transient() wrapper not detected")
	}
	if wrapped.Error() != base.Error() {
		t.Errorf("message changed: %q", wrapped.Error())
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
}
