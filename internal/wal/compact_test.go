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
)

// pendingCells is the aggregate batch populate leaves unread.
var pendingCells = []ingest.AggCell{{Agent: 2, Seq: 1, Bucket: 13, Samples: 5, MeanRTT: 11, Clients: 1}}

// populate writes a realistic log from bucket from to bucket to: a batch of
// either feed per bucket and its read, a seal now and then, a report after
// every third read and a checkpoint after every fourth, naming the report
// before it; then an unread batch of each feed.
func populate(t *testing.T, l *Log, from, to netmodel.Bucket) {
	t.Helper()
	for b := from; b < to; b++ {
		obs := obsFor(b, 4)
		if err := l.AppendBatch(obs); err != nil {
			t.Fatal(err)
		}
		if b%4 == 1 {
			cell := ingest.AggCell{Agent: 1, Seq: int64(b), Bucket: b, Prefix: 9, Samples: 5, MeanRTT: 10, Clients: 1}
			if err := l.AppendAggBatch([]ingest.AggCell{cell}); err != nil {
				t.Fatal(err)
			}
			obs = append(obs, cell.Observation())
		}
		if b%5 == 0 {
			if err := l.AppendSeal(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.AppendBucket(b, obs); err != nil {
			t.Fatal(err)
		}
		if b%3 == 2 {
			rep := Report{Seq: int64(b / 3), From: b - 2, To: b, Canonical: []byte(`{"report":"padded to fill a segment"}`)}
			if err := l.AppendReport(rep); err != nil {
				t.Fatal(err)
			}
		}
		if b%4 == 3 {
			reports := int(b+1) / 3
			writeCheckpoint(t, l, Checkpoint{Reads: int(b) + 1, Bucket: b, Reports: reports, Keep: reports - 1}, "state")
		}
	}
	if err := l.AppendAggBatch(pendingCells); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(obsFor(to+1, 3)); err != nil {
		t.Fatal(err)
	}
}

// smallSegments spreads populate's records over several segments of each
// family, so that a pass has more than one to unlink; it restores every
// checkpoint offered.
var smallSegments = Config{Fsync: SyncOff, Meta: "m", SegmentBytes: 200, Restore: func(Checkpoint, *Recovery) (func() error, error) { return nil, nil }}

// projection is what a recovery hands the daemon: where it starts, the
// journal after it, and the reports from the checkpoint's first on.
type projection struct {
	from    int // the checkpoint's reads
	journal []Record
	reports []Report
}

func project(rec *Recovery) projection {
	p := projection{journal: rec.Journal, reports: rec.Reports}
	if ck := rec.Checkpoint; ck != nil {
		p.from = ck.Reads
		for len(p.reports) > 0 && p.reports[0].Index < ck.Keep {
			p.reports = p.reports[1:]
		}
	}
	return p
}

func checkProjectionsEqual(t *testing.T, got, want projection) {
	t.Helper()
	if got.from != want.from {
		t.Fatalf("recovered from read %d, want %d", got.from, want.from)
	}
	checkJournal(t, got.journal, want.journal)
	if !reflect.DeepEqual(got.reports, want.reports) {
		t.Fatalf("reports: %d, want %d", len(got.reports), len(want.reports))
	}
}

// segmentFiles lists both families' segment files in dir by name.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for _, pattern := range []string{"wal-*.log", "reports-*.log"} {
		found, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range found {
			names = append(names, filepath.Base(name))
		}
	}
	return names
}

// reference is what a reopen recovers from populate's log, never
// compacted.
func reference(t *testing.T, cfg Config) *Recovery {
	t.Helper()
	dir := t.TempDir()
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, l, 0, 12)
	l.Close()
	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestCompactionPreservesRecovery(t *testing.T) {
	cfg := smallSegments
	want := project(reference(t, cfg))

	dir := t.TempDir()
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, l, 0, 12)
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Post-compaction appends must land in the new segments.
	if err := l.AppendSeal(11); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(obsFor(14, 2)); err != nil {
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
	want.journal = append(want.journal, Record{Kind: KindSeal, Bucket: 11}, Record{Kind: KindBatch, Obs: obsFor(14, 2)})
	checkProjectionsEqual(t, project(rec), want)
}

// TestCompactionCrashPoints kills the compaction at each phase of the
// protocol — before it starts, before the checkpoints' fsync, between two
// unlinks, and after the last — and verifies a reopen recovers the same
// state as no compaction at all, and that a pass over the reopened log
// leaves the segments an uninterrupted pass does.
func TestCompactionCrashPoints(t *testing.T) {
	cfg := smallSegments
	want := project(reference(t, cfg))

	// An uninterrupted pass, for the segments it leaves.
	clean := t.TempDir()
	lc, _, err := Open(clean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, lc, 0, 12)
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
		populate(t, l, 0, 12)
		before := segmentFiles(t, dir)
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
		wantGone := 0
		if crashAt == "unlinked" {
			wantGone = nth
		}
		if gone := len(before) - len(segmentFiles(t, dir)); gone != wantGone {
			t.Fatalf("crash at %s #%d: %d segments gone, want %d", crashAt, nth, gone, wantGone)
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
		if got, want := segmentFiles(t, dir), segmentFiles(t, clean); !reflect.DeepEqual(got, want) {
			t.Fatalf("after crash at %s and a second pass the segments are %v, an uninterrupted pass leaves %v", crashAt, got, want)
		}
	}
	t.Run("begin", func(t *testing.T) { crash(t, "begin", 1) })
	t.Run("pre-sync", func(t *testing.T) { crash(t, "pre-sync", 1) })
	t.Run("between-unlinks", func(t *testing.T) { crash(t, "unlinked", 1) })
	t.Run("after-unlinks", func(t *testing.T) { crash(t, "unlinked", unlinked) })
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
	populate(t, l, 0, 12)

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
		if err := l.AppendReport(Report{Seq: int64(b), From: b, To: b, Canonical: []byte("{}\n")}); err != nil {
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
	l.Close()

	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// From the newest checkpoint, after read 12: the two unread batches,
	// then the forty records appended during the pass.
	if rec.Checkpoint == nil || rec.Checkpoint.Reads != 12 || len(rec.Journal) != 2+40 || reads(rec.Journal) != 20 {
		t.Fatalf("recovered from %+v %d journal records with %d reads, want 42 with 20 after read 12", rec.Checkpoint, len(rec.Journal), reads(rec.Journal))
	}
}

// TestOpenRefusesFormatVersion1 pins what happens to a data directory
// written in an earlier format — testdata/format-v1 before per-segment
// compaction (snapshot record included), testdata/format-v2 by the commit
// before the aggregate feed joined the ingest queue (agg-flush record
// included), testdata/format-v3 by the commit before batches moved into a
// family of their own (batches between the reads, without positions),
// testdata/format-v4 by the commit before reports moved into a family of
// their own (reports between the reads, no base records), testdata/format-v5
// by the commit before the batches moved back and the reads lost their
// streams (an accepted family, bucket streams), each by the code of its
// day: the open fails and says which version it found, rather than
// misreading or dropping the old records.
func TestOpenRefusesFormatVersion1(t *testing.T) {
	for version, seg := range map[int]string{1: "wal-0000000002.log", 2: "wal-0000000001.log", 3: "wal-0000000001.log", 4: "wal-0000000001.log", 5: "wal-0000000001.log"} {
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

// TestDoubleCompaction verifies a pass judges afresh by the checkpoints
// cut since the one before: a second pass over a longer log must unlink
// more and project to the same recovery as a log never compacted at all.
func TestDoubleCompaction(t *testing.T) {
	cfg := smallSegments
	dirRef := t.TempDir()
	lRef, _, err := Open(dirRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, lRef, 0, 12)
	populate(t, lRef, 12, 24)
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
	populate(t, l, 0, 12)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	first := l.Stats().LastCompact.Segments
	populate(t, l, 12, 24)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if second := l.Stats().LastCompact.Segments; first == 0 || second == 0 {
		t.Fatalf("the passes unlinked %d and %d segments, want some each", first, second)
	}
	l.Close()
	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkProjectionsEqual(t, project(rec), want)
	if names, _ := filepath.Glob(filepath.Join(dir, "wal-0000000001.log")); len(names) != 0 {
		t.Fatalf("the journal's first segment survived two passes")
	}
}
