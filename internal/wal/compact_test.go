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

func TestCompactionPreservesRecovery(t *testing.T) {
	dirRef := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	lRef, _, err := Open(dirRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, lRef)
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
		t.Fatalf("Compact: %v", err)
	}
	// Post-compaction appends must land in the new segment.
	if err := l.AppendSeal(11); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	l.Close()

	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	want.maxSeal = 11
	checkProjectionsEqual(t, project(rec), want)

	// The droppable records must actually be gone: the consumed batches of
	// both feeds.
	if len(rec.Batches) != 2 || len(rec.Batches[0].Cells) == 0 || len(rec.Batches[1].Obs) == 0 {
		t.Fatalf("compaction kept %d batches; want the unconsumed one of each feed", len(rec.Batches))
	}
}

// TestCompactionCrashPoints kills the compaction at each phase of the
// protocol — before any segment is touched, with a half-written .tmp on
// disk, with the .tmp complete but not renamed, and with the rewrite in
// place but the directory not yet synced — in the first segment of a pass
// and in the second, and verifies a reopen recovers the same state as no
// compaction at all.
func TestCompactionCrashPoints(t *testing.T) {
	// Small segments, so that populate spreads over several and a pass
	// has more than one to rewrite.
	cfg := Config{Fsync: SyncOff, Meta: "m", SegmentBytes: 512}
	dirRef := t.TempDir()
	lRef, _, err := Open(dirRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, lRef)
	lRef.Close()
	_, recRef, err := Open(dirRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := project(recRef)

	crash := func(t *testing.T, crashAt string, nth int) {
		dir := t.TempDir()
		l, _, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, l)
		seen := 0
		l.compactStep = func(phase string) bool {
			if phase == crashAt {
				seen++
			}
			return phase != crashAt || seen < nth
		}
		if err := l.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if seen != nth {
			t.Fatalf("phase %s reached %d times, want %d: the pass rewrote too few segments for this crash point", crashAt, seen, nth)
		}
		l.Abandon() // the simulated kill
		tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if leaves := crashAt == "pre-sync" || crashAt == "pre-rename"; leaves != (len(tmps) == 1) {
			t.Fatalf("crash at %s left .tmp files %v", crashAt, tmps)
		}

		l1, rec, err := Open(dir, cfg)
		if err != nil {
			t.Fatalf("reopen after crash at %s: %v", crashAt, err)
		}
		checkProjectionsEqual(t, project(rec), want)
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("open left %v behind", tmps)
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
		if n := len(rec2.Batches); n != 2 {
			t.Fatalf("%d batches survived the second compaction, want only the two unsettled ones", n)
		}
	}
	for _, crashAt := range []string{"begin", "pre-sync", "pre-rename", "post-rename"} {
		t.Run(crashAt, func(t *testing.T) { crash(t, crashAt, 1) })
	}
	for _, crashAt := range []string{"pre-sync", "pre-rename", "post-rename"} {
		t.Run("second-segment-"+crashAt, func(t *testing.T) { crash(t, crashAt, 2) })
	}
}

// TestCompactionAbortsOnCorruptSegment flips a bit in the middle of a
// sealed segment: the pass must fail and leave every file as it was —
// rewriting would keep only the frames before the flip and silently lose
// the rest.
func TestCompactionAbortsOnCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, l)
	path := filepath.Join(dir, segName(1))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), before...)
	mut[len(mut)/2] ^= 0x10
	if err := os.WriteFile(path, mut, 0o666); err != nil {
		t.Fatal(err)
	}

	err = l.Compact()
	if err == nil || !strings.Contains(err.Error(), "invalid record") {
		t.Fatalf("Compact over a corrupt segment: err = %v, want an invalid-record error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, mut) {
		t.Fatal("failed compaction changed the segment it could not validate")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed compaction left %v behind", tmps)
	}
	if st := l.Stats(); st.Compactions != 0 {
		t.Fatalf("failed pass counted as a compaction: %+v", st)
	}
	l.Close()
}

// TestCompactionCostTracksNewBytes pins the point of per-segment
// compaction: a pass reads and writes about what was appended since the
// pass before, however long the log has grown, and a segment left with
// nothing droppable is never rewritten again.
func TestCompactionCostTracksNewBytes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const cadences, perCadence = 10, 12
	settled := map[string]os.FileInfo{} // segments with no batch left, as first seen
	var next netmodel.Bucket
	var lastDir int64
	for c := 0; c < cadences; c++ {
		before := l.Stats().AppendedBytes
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
		// are in flight: the last buckets' batches stay for the next pass.
		if err := l.AppendReport(Report{Seq: int64(c), From: next - perCadence, To: next - 3, Canonical: []byte("{}\n")}); err != nil {
			t.Fatal(err)
		}
		appended := l.Stats().AppendedBytes - before
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		st := l.Stats()
		if st.LastCompactReadBytes == 0 || st.LastCompactWrittenBytes == 0 {
			t.Fatalf("cadence %d: pass read %d wrote %d bytes, want both > 0", c, st.LastCompactReadBytes, st.LastCompactWrittenBytes)
		}
		if st.LastCompactReadBytes > 2*appended || st.LastCompactWrittenBytes > 2*appended {
			t.Fatalf("cadence %d: pass read %d wrote %d bytes with %d appended since the last one: cost is not O(new)",
				c, st.LastCompactReadBytes, st.LastCompactWrittenBytes, appended)
		}

		// Segments the log no longer lists as dirty must be the same files
		// ever after.
		l.mu.Lock()
		dirty := map[uint64]bool{l.active.seq: true}
		for _, seg := range l.dirty {
			dirty[seg.seq] = true
		}
		l.mu.Unlock()
		for seq := uint64(1); seq <= uint64(st.Segments); seq++ {
			name := segName(seq)
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if was, ok := settled[name]; ok {
				if !os.SameFile(was, fi) || was.Size() != fi.Size() {
					t.Fatalf("cadence %d: settled segment %s was rewritten", c, name)
				}
			} else if !dirty[seq] {
				settled[name] = fi
			}
		}
		lastDir = 0
		for seq := uint64(1); seq <= uint64(st.Segments); seq++ {
			fi, _ := os.Stat(filepath.Join(dir, segName(seq)))
			lastDir += fi.Size()
		}
	}
	if len(settled) < cadences-2 {
		t.Fatalf("only %d of %d cadences' segments settled", len(settled), cadences)
	}
	// What is left is about one copy of the consumed trace: well under the
	// two copies (batch + bucket) that were appended.
	if total := l.Stats().AppendedBytes; lastDir > total*6/10 {
		t.Fatalf("directory holds %d of %d appended bytes after compaction", lastDir, total)
	}
}

// TestAppendsProceedDuringCompaction holds a pass in the middle of a
// segment rewrite and requires appends — and a whole rotation — from
// another goroutine to complete meanwhile: the rewrite does not hold the
// append lock. Run with -race -count=10.
func TestAppendsProceedDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m", SegmentBytes: 2048}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, l)

	held, release := make(chan struct{}), make(chan struct{})
	l.compactStep = func(phase string) bool {
		if phase == "pre-rename" {
			select {
			case <-held: // later segments pass straight through
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
	if st := l.Stats(); st.Segments == segsBefore {
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
	for _, b := range rec.Batches {
		for _, o := range b.Obs {
			if rec.Reads.Reached(b.AfterBuckets, o.Bucket) && o.Bucket <= 5 {
				t.Fatalf("a settled, reported batch (bucket %d) survived two passes", o.Bucket)
			}
		}
	}
}

// TestCompactionDropsSkippedWarmupBatches: warm-up sampling reads every
// k'th bucket, and the batches of the buckets it jumps over are discarded
// by the queue, never served. Once the reads have passed them and a report
// covers them they are as settled as served ones, and compaction drops
// them.
func TestCompactionDropsSkippedWarmupBatches(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
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
	if !reflect.DeepEqual(kept, []netmodel.Bucket{5, 6, 7}) {
		t.Fatalf("batches kept for buckets %v, want [5 6 7]", kept)
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
}

// TestOpenRefusesFormatVersion1 pins what happens to a data directory
// written in an earlier format — testdata/format-v1 before per-segment
// compaction (snapshot record included), testdata/format-v2 by the commit
// before the aggregate feed joined the ingest queue (agg-flush record
// included), each by the code of its day: the open fails and says which
// version it found, rather than misreading or dropping the old records.
func TestOpenRefusesFormatVersion1(t *testing.T) {
	for version, seg := range map[int]string{1: segName(2), 2: segName(1)} {
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
