package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// pendingCells is the aggregate batch populate leaves unconsumed.
var pendingCells = []ingest.AggCell{{Agent: 2, Seq: 1, Bucket: 8, Samples: 5, MeanRTT: 11, Clients: 1}}

// populate writes a realistic history: batches of both feeds pushed,
// buckets consumed, reports published, plus a leftover unconsumed batch of
// each feed that compaction must keep.
func populate(t *testing.T, l *Log) {
	t.Helper()
	for b := netmodel.Bucket(0); b < 6; b++ {
		obs := obsFor(b, 4)
		if err := l.AppendBatch(obs); err != nil {
			t.Fatal(err)
		}
		if b == 4 {
			// An aggregate batch the read below settles, as it does the raw one.
			cell := ingest.AggCell{Agent: 1, Seq: 1, Bucket: b, Prefix: 9, Samples: 5, MeanRTT: 10, Clients: 1}
			if err := l.AppendAggBatch([]ingest.AggCell{cell}); err != nil {
				t.Fatal(err)
			}
			obs = append(obs, cell.Observation())
		}
		if err := l.AppendBucket(b, obs); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendSeal(5); err != nil {
		t.Fatal(err)
	}
	for i, to := range []netmodel.Bucket{2, 5} {
		rep := Report{Seq: int64(i), From: 3 * netmodel.Bucket(i), To: to, Canonical: []byte("{}\n")}
		if err := l.AppendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	// Batches for buckets no read has reached: not yet droppable.
	if err := l.AppendAggBatch(pendingCells); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(obsFor(7, 3)); err != nil {
		t.Fatal(err)
	}
}

// recoveryProjection is the replay-relevant state: what the server would
// actually reconstruct. Compaction must preserve it exactly.
type projection struct {
	buckets   []BucketStream
	leftovers []Batch // per batch, the records or cells no read settled
	reports   []Report
	maxSeal   netmodel.Bucket
}

func project(rec *Recovery) projection {
	p := projection{buckets: rec.Buckets, reports: rec.Reports, maxSeal: rec.MaxSeal}
	// The server's leftover reconstruction: what no later read settled.
	for _, batch := range rec.Batches {
		var left Batch
		for _, o := range batch.Obs {
			if !rec.Reads.Reached(batch.AfterBuckets, o.Bucket) {
				left.Obs = append(left.Obs, o)
			}
		}
		for _, c := range batch.Cells {
			if !rec.Reads.Reached(batch.AfterBuckets, c.Bucket) {
				left.Cells = append(left.Cells, c)
			}
		}
		if len(left.Obs)+len(left.Cells) > 0 {
			p.leftovers = append(p.leftovers, left)
		}
	}
	return p
}

func checkProjectionsEqual(t *testing.T, got, want projection) {
	t.Helper()
	if len(got.buckets) != len(want.buckets) {
		t.Fatalf("bucket streams: %d, want %d", len(got.buckets), len(want.buckets))
	}
	for i := range want.buckets {
		if got.buckets[i].Bucket != want.buckets[i].Bucket || !obsEqual(got.buckets[i].Obs, want.buckets[i].Obs) {
			t.Fatalf("bucket stream %d differs", i)
		}
	}
	if len(got.leftovers) != len(want.leftovers) {
		t.Fatalf("leftover batches: %d, want %d", len(got.leftovers), len(want.leftovers))
	}
	for i := range want.leftovers {
		if !obsEqual(got.leftovers[i].Obs, want.leftovers[i].Obs) || !reflect.DeepEqual(got.leftovers[i].Cells, want.leftovers[i].Cells) {
			t.Fatalf("leftover batch %d differs", i)
		}
	}
	if len(got.reports) != len(want.reports) {
		t.Fatalf("reports: %d, want %d", len(got.reports), len(want.reports))
	}
	if got.maxSeal != want.maxSeal {
		t.Fatalf("maxSeal: %d, want %d", got.maxSeal, want.maxSeal)
	}
}

// acceptedSegments lists the accepted family's segment files in dir, by
// name, with what each is on disk.
func acceptedSegments(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "accepted-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	segs := make(map[string]os.FileInfo, len(names))
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		segs[filepath.Base(name)] = fi
	}
	return segs
}

func sameNames(a, b map[string]os.FileInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for name := range a {
		if _, ok := b[name]; !ok {
			return false
		}
	}
	return true
}

// smallSegments spreads populate's batches over several accepted
// segments, so that a pass has more than one to unlink.
var smallSegments = Config{Fsync: SyncOff, Meta: "m", SegmentBytes: 200}

// reference is what a reopen recovers from populate's log, never
// compacted.
func reference(t *testing.T, cfg Config) *Recovery {
	t.Helper()
	dir := t.TempDir()
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, l)
	l.Close()
	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestCompactionPreservesRecovery(t *testing.T) {
	cfg := smallSegments
	recRef := reference(t, cfg)
	want := project(recRef)

	dir := t.TempDir()
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, l)
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Post-compaction appends must land in the new segments.
	if err := l.AppendSeal(11); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(obsFor(9, 2)); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Compactions != 1 || st.LastCompact.Segments == 0 {
		t.Fatalf("Stats = %+v, want one pass that unlinked something", st)
	}
	l.Close()

	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	want.maxSeal = 11
	want.leftovers = append(want.leftovers, Batch{Obs: obsFor(9, 2)})
	checkProjectionsEqual(t, project(rec), want)

	// The droppable batches must actually be gone, and the unsettled ones
	// of both feeds kept.
	if rec.Settled >= recRef.Settled || len(rec.Batches) != 3 || len(rec.Batches[0].Cells) == 0 || len(rec.Batches[1].Obs) == 0 {
		t.Fatalf("compaction kept %d settled of %d and %d unsettled batches; want fewer settled and the unconsumed one of each feed plus the new one",
			rec.Settled, recRef.Settled, len(rec.Batches))
	}
}

// TestCompactionCrashPoints kills the compaction at each phase of the
// protocol — before it starts, before the history fsync, between two
// unlinks, and after the last — and verifies a reopen recovers the same
// state as no compaction at all, and that a pass over the reopened log
// leaves the accepted family as an uninterrupted pass does.
func TestCompactionCrashPoints(t *testing.T) {
	cfg := smallSegments
	want := project(reference(t, cfg))

	// An uninterrupted pass, for the accepted segments it leaves.
	clean := t.TempDir()
	lc, _, err := Open(clean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, lc)
	if err := lc.Compact(); err != nil {
		t.Fatal(err)
	}
	unlinked := lc.Stats().LastCompact.Segments
	lc.Close()
	if unlinked < 2 {
		t.Fatalf("an uninterrupted pass unlinked %d segments; the crash points need two or more", unlinked)
	}

	crash := func(t *testing.T, crashAt string, nth int) {
		dir := t.TempDir()
		l, _, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, l)
		before := acceptedSegments(t, dir)
		seen := 0
		l.testStep = func(phase string) bool {
			if phase == crashAt {
				seen++
			}
			return phase != crashAt || seen < nth
		}
		if err := l.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if seen != nth {
			t.Fatalf("phase %s reached %d times, want %d", crashAt, seen, nth)
		}
		l.Abandon() // the simulated kill
		gone, after := 0, acceptedSegments(t, dir)
		for name := range before {
			if _, ok := after[name]; !ok {
				gone++
			}
		}
		wantGone := 0
		if crashAt == "unlinked" {
			wantGone = nth
		}
		if gone != wantGone {
			t.Fatalf("crash at %s #%d: %d accepted segments gone, want %d", crashAt, nth, gone, wantGone)
		}

		l1, rec, err := Open(dir, cfg)
		if err != nil {
			t.Fatalf("reopen after crash at %s: %v", crashAt, err)
		}
		checkProjectionsEqual(t, project(rec), want)
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("crash left %v behind", tmps)
		}
		// And the directory must be fully usable: a second, untampered
		// compaction still works.
		if err := l1.Compact(); err != nil {
			t.Fatalf("compaction after crash recovery: %v", err)
		}
		l1.Close()
		_, rec2, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkProjectionsEqual(t, project(rec2), want)
		if got, want := acceptedSegments(t, dir), acceptedSegments(t, clean); !sameNames(got, want) {
			t.Fatalf("after crash at %s and a second pass the accepted family is %v, an uninterrupted pass leaves %v", crashAt, got, want)
		}
	}
	t.Run("begin", func(t *testing.T) { crash(t, "begin", 1) })
	t.Run("pre-sync", func(t *testing.T) { crash(t, "pre-sync", 1) })
	t.Run("between-unlinks", func(t *testing.T) { crash(t, "unlinked", 1) })
	t.Run("after-unlinks", func(t *testing.T) { crash(t, "unlinked", unlinked) })
}

// TestAcceptedTailTruncatedAlone corrupts each family's tail in turn. A
// corrupt accepted tail truncates only that family: every read and report
// stays. A truncated history keeps every batch, and a batch recorded past
// the reads it lost is re-queued whole, byte for byte — in this recovery
// and in the next, until a read after the recovery serves it.
func TestAcceptedTailTruncatedAlone(t *testing.T) {
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	write := func(t *testing.T) string {
		dir := t.TempDir()
		l, _, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, l)
		l.Close()
		return dir
	}
	garbage := bytes.Repeat([]byte{0xEE}, 37)
	appendGarbage := func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(garbage); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("accepted", func(t *testing.T) {
		dir := write(t)
		want := project(reference(t, cfg))
		// Cut the last batch (bucket 7) in half and leave garbage after it.
		path := filepath.Join(dir, "accepted-0000000001.log")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-20); err != nil {
			t.Fatal(err)
		}
		appendGarbage(t, path)
		l, rec, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if rec.TruncatedBytes == 0 {
			t.Fatal("a corrupt accepted tail truncated nothing")
		}
		want.leftovers = want.leftovers[:len(want.leftovers)-1]
		checkProjectionsEqual(t, project(rec), want)
		if len(rec.Reports) != 2 || len(rec.Buckets) != 6 {
			t.Fatalf("a corrupt accepted tail cost the history: %d reports, %d reads", len(rec.Reports), len(rec.Buckets))
		}
	})

	t.Run("history", func(t *testing.T) {
		dir := write(t)
		// A late record for bucket 4, accepted after all six reads: the
		// queue held it stale, for the read after them.
		l, _, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBatch(obsFor(4, 1)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		// Cut the history after its fourth read, mid-frame: the reads of
		// buckets 4 and 5 and the seal go, and the batches recorded at
		// positions 4 to 6 lie past what is left. Both reports followed
		// the lost reads: the reports family is cut back with them.
		path := filepath.Join(dir, "wal-0000000001.log")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := scanRecords(data[segHeader:], historyKinds, nil)
		cut := int64(segHeader) + framedBytes(recs[:2+4]) // the meta and base records, then four reads
		if err := os.Truncate(path, cut+3); err != nil {
			t.Fatal(err)
		}
		cell4 := ingest.AggCell{Agent: 1, Seq: 1, Bucket: 4, Prefix: 9, Samples: 5, MeanRTT: 10, Clients: 1}
		requeued := []Batch{
			{Obs: obsFor(4, 4), AfterBuckets: 4},
			{Cells: []ingest.AggCell{cell4}, AfterBuckets: 4},
			{Obs: obsFor(5, 4), AfterBuckets: 5},
			{Cells: pendingCells, AfterBuckets: 6},
			{Obs: obsFor(7, 3), AfterBuckets: 6},
			{Obs: obsFor(4, 1), AfterBuckets: 6},
		}
		// Twice: the second open reads the history the first one left.
		for round := 0; round < 2; round++ {
			l, rec, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Buckets) != 4 || len(rec.Reports) != 0 || rec.MaxSeal != -1 || rec.Settled != 4 {
				t.Fatalf("round %d: recovered %d reads, %d reports, seal %d, %d settled batches", round, len(rec.Buckets), len(rec.Reports), rec.MaxSeal, rec.Settled)
			}
			if !reflect.DeepEqual(rec.Batches, requeued) {
				t.Fatalf("round %d: re-queued %+v, want %+v", round, rec.Batches, requeued)
			}
			if rec.Reads.Len() != 6 {
				t.Fatalf("round %d: the next read takes position %d, want 6: past every recorded batch", round, rec.Reads.Len())
			}
			if round == 1 {
				// The re-queued late record is pending under bucket 4 now,
				// and the first read serves it: a later recovery must know.
				if err := l.AppendBucket(4, nil); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
		}
		_, rec, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.Batches, []Batch{requeued[2], requeued[3], requeued[4]}) {
			t.Fatalf("after a read of bucket 4, %d batches re-queued, want those of buckets 5, 7 and 8", len(rec.Batches))
		}
	})
}

// TestCompactionUnlinksOnlySettled pins what a pass touches: it leaves
// every history segment the same file at the same size, and it unlinks
// exactly the accepted segments whose batches are all read and reported
// — so the accepted family stays about two cadences long however long
// the log grows.
func TestCompactionUnlinksOnlySettled(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m", SegmentBytes: 16 << 10}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const cadences, perCadence = 10, 12
	var next netmodel.Bucket
	var reportTo netmodel.Bucket = -1
	history := func() map[string]os.FileInfo {
		names, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		m := make(map[string]os.FileInfo)
		for _, name := range names {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			m[name] = fi
		}
		return m
	}
	for c := 0; c < cadences; c++ {
		for i := 0; i < perCadence; i++ {
			obs := obsFor(next, 200)
			if err := l.AppendBatch(obs); err != nil {
				t.Fatal(err)
			}
			if err := l.AppendBucket(next, obs); err != nil {
				t.Fatal(err)
			}
			next++
		}
		// The report trails the reads, as the daemon's does while windows
		// are in flight: the last buckets' batches stay for a later pass.
		reportTo = next - 3
		if err := l.AppendReport(Report{Seq: int64(c), From: next - perCadence, To: reportTo, Canonical: []byte("{}\n")}); err != nil {
			t.Fatal(err)
		}

		// Which accepted segments hold only batches that are read (every
		// bucket before next is) and reported?
		droppable := map[string]bool{}
		for name := range acceptedSegments(t, dir) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			high := noBucket
			recs, _ := scanRecords(data[segHeader:], acceptedKinds, nil)
			for _, r := range recs[1:] {
				high = max(high, r.high)
			}
			droppable[name] = len(recs) > 1 && high <= reportTo
		}
		histBefore, accBefore := history(), acceptedSegments(t, dir)
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		for name, was := range histBefore {
			if fi, err := os.Stat(name); err != nil || !os.SameFile(was, fi) || was.Size() != fi.Size() {
				t.Fatalf("cadence %d: the pass changed history segment %s", c, name)
			}
		}
		accAfter := acceptedSegments(t, dir)
		var unlinked int64
		for name, was := range accBefore {
			fi, kept := accAfter[name]
			if kept == droppable[name] {
				t.Fatalf("cadence %d: %s kept=%v, droppable=%v", c, name, kept, droppable[name])
			}
			if kept && !os.SameFile(was, fi) {
				t.Fatalf("cadence %d: the pass rewrote %s", c, name)
			}
			if !kept {
				unlinked += was.Size()
			}
		}
		st := l.Stats()
		if st.LastCompact.Bytes != unlinked || st.LastCompact.Reads != int(next) || st.LastCompact.ReportTo != reportTo {
			t.Fatalf("cadence %d: pass %+v, want %d bytes unlinked judged by %d reads and reports to %d", c, st.LastCompact, unlinked, next, reportTo)
		}
		if c > 0 && unlinked == 0 {
			t.Fatalf("cadence %d: the pass unlinked nothing", c)
		}
		if len(accAfter) > 2 {
			t.Fatalf("cadence %d: %d accepted segments after the pass, want at most the unreported tail and the fresh one", c, len(accAfter))
		}
		reports, _ := filepath.Glob(filepath.Join(dir, "reports-*.log"))
		if want := len(history()) + len(reports) + len(accAfter); st.Segments != want {
			t.Fatalf("cadence %d: Stats.Segments = %d, %d files on disk", c, st.Segments, want)
		}
	}
}

// TestAppendsProceedDuringCompaction holds a pass between two unlinks and
// requires appends — and a whole rotation of each family — from another
// goroutine to complete meanwhile: the unlinks do not hold the append
// lock. Run with -race -count=10.
func TestAppendsProceedDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := smallSegments
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, l)

	held, release := make(chan struct{}), make(chan struct{})
	l.testStep = func(phase string) bool {
		if phase == "unlinked" {
			select {
			case <-held: // later unlinks pass straight through
			default:
				close(held)
				<-release
			}
		}
		return true
	}
	done := make(chan error, 1)
	go func() { done <- l.Compact() }()
	<-held

	segsBefore := l.Stats().Segments
	for b := netmodel.Bucket(20); b < 40; b++ {
		obs := obsFor(b, 4)
		if err := l.AppendBatch(obs); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBucket(b, obs); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < segsBefore+2 {
		t.Fatal("appends during the held pass never rotated; raise the volume")
	}
	select {
	case err := <-done:
		t.Fatalf("Compact returned (%v) while held", err)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := l.AppendReport(Report{Seq: 2, From: 20, To: 39, Canonical: []byte("{}\n")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil { // picks up what was appended meanwhile
		t.Fatal(err)
	}
	l.Close()

	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Buckets) != 6+20 {
		t.Fatalf("recovered %d bucket streams, want 26", len(rec.Buckets))
	}
	// Reads up to bucket 39, reported: every batch is settled and gone.
	if len(rec.Batches) != 0 || rec.Settled != 0 {
		t.Fatalf("%d unsettled and %d settled batches survived two passes", len(rec.Batches), rec.Settled)
	}
}

// TestCompactionDropsSkippedWarmupBatches: warm-up sampling reads every
// k'th bucket, and the batches of the buckets it jumps over are discarded
// by the queue, never served. Once the reads have passed them and a report
// covers them they are as settled as served ones, and compaction unlinks
// them.
func TestCompactionDropsSkippedWarmupBatches(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m", SegmentBytes: 64} // a batch a segment
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := netmodel.Bucket(0); b < 8; b++ {
		if err := l.AppendBatch(obsFor(b, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []netmodel.Bucket{0, 4} { // the sampled reads
		if err := l.AppendBucket(b, obsFor(b, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendReport(Report{From: 0, To: 5, Canonical: []byte("{}\n")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := l.Stats().LastCompact.Segments; n != 5 {
		t.Fatalf("the pass unlinked %d segments, want the five of buckets 0..4", n)
	}
	l.Close()
	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets 0..4 are settled (served or jumped over) and reported; 5 is
	// reported but no read has reached it; 6 and 7 are neither.
	var kept []netmodel.Bucket
	for _, b := range rec.Batches {
		kept = append(kept, b.Obs[0].Bucket)
	}
	if !reflect.DeepEqual(kept, []netmodel.Bucket{5, 6, 7}) || rec.Settled != 0 {
		t.Fatalf("batches kept for buckets %v and %d settled, want [5 6 7] and none", kept, rec.Settled)
	}
	if left := project(rec).leftovers; len(left) != 3 {
		t.Fatalf("%d leftover batches, want 3", len(left))
	}
}

// TestHorizon pins the settle rule itself.
func TestHorizon(t *testing.T) {
	var h Horizon
	if h.Reached(0, 0) {
		t.Fatal("an empty horizon reached something")
	}
	for _, b := range []netmodel.Bucket{3, 5, 9} { // reads 0..2
		h.add(b)
	}
	cases := []struct {
		after int
		b     netmodel.Bucket
		want  bool
	}{
		{0, 9, true}, {0, 10, false}, // read 2 reached 9
		{2, 9, true}, {2, 10, false}, // only read 2 is left
		{3, 0, false}, {3, noBucket, false}, // nothing came after three reads
		{2, noBucket, true},
	}
	for _, c := range cases {
		if got := h.Reached(c.after, c.b); got != c.want {
			t.Errorf("Reached(%d, %d) = %v, want %v", c.after, c.b, got, c.want)
		}
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d, want 3", h.Len())
	}
	// Positions a truncated history lost: batches recorded there are after
	// every read so far, and the next read is after them.
	h.skipTo(5)
	h.skipTo(4) // never back
	if h.Len() != 5 || h.Reached(3, 9) || !h.Reached(2, 9) {
		t.Fatalf("after skipTo(5): Len = %d, Reached(3, 9) = %v, Reached(2, 9) = %v", h.Len(), h.Reached(3, 9), h.Reached(2, 9))
	}
	h.add(10)
	if h.Len() != 6 || !h.Reached(5, 10) || h.Reached(6, 10) {
		t.Fatalf("the read after the skip: Len = %d, Reached(5, 10) = %v, Reached(6, 10) = %v", h.Len(), h.Reached(5, 10), h.Reached(6, 10))
	}
}

// TestOpenRefusesFormatVersion1 pins what happens to a data directory
// written in an earlier format — testdata/format-v1 before per-segment
// compaction (snapshot record included), testdata/format-v2 by the commit
// before the aggregate feed joined the ingest queue (agg-flush record
// included), testdata/format-v3 by the commit before batches moved into a
// family of their own (batches between the reads, without positions),
// testdata/format-v4 by the commit before reports moved into a family of
// their own (reports between the reads, no base records), each by the
// code of its day: the open fails and says which version it found,
// rather than misreading or dropping the old records.
func TestOpenRefusesFormatVersion1(t *testing.T) {
	for version, seg := range map[int]string{1: "wal-0000000002.log", 2: "wal-0000000001.log", 3: "wal-0000000001.log", 4: "wal-0000000001.log"} {
		dir := t.TempDir()
		old, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("format-v%d", version), seg))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, seg), old, 0o666); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(dir, Config{Fsync: SyncOff, Meta: "m"})
		if want := fmt.Sprintf("format version %d", version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open of a version-%d directory: err = %v, want a refusal naming %s", version, err, want)
		}
		now, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil || !bytes.Equal(now, old) {
			t.Fatalf("refused open touched the version-%d segment (err %v)", version, err)
		}
	}
}

// TestDoubleCompaction verifies a batch kept by one pass is judged afresh
// by the next: a second pass over new history must project to the same
// replay state as a log never compacted at all.
func TestDoubleCompaction(t *testing.T) {
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	extend := func(l *Log) {
		// Consume the leftover bucket-7 batch populate pushed, plus a new
		// one, and the leftover aggregate batch, and cover all with a report.
		obs := obsFor(7, 3)
		if err := l.AppendBatch(obs); err != nil {
			t.Fatal(err)
		}
		served := append(append([]trace.Observation(nil), obsFor(7, 3)...), obs...)
		if err := l.AppendBucket(7, served); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBucket(8, []trace.Observation{pendingCells[0].Observation()}); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendReport(Report{Seq: 2, From: 6, To: 8, Canonical: []byte("{}\n")}); err != nil {
			t.Fatal(err)
		}
	}

	dirRef := t.TempDir()
	lRef, _, err := Open(dirRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, lRef)
	extend(lRef)
	lRef.Close()
	_, recRef, err := Open(dirRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := project(recRef)

	dir := t.TempDir()
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, l)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	extend(l)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := project(rec)
	checkProjectionsEqual(t, p, want)
	// Everything pushed is now consumed and reported: no leftovers.
	if len(p.leftovers) != 0 {
		t.Fatalf("leftovers after double compaction: %d batches, want 0", len(p.leftovers))
	}
}
