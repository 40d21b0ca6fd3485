package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

// ckptBody encodes a stand-in state: the bytes of s.
func ckptBody(s string) func(*ckpt.Encoder) error {
	return func(e *ckpt.Encoder) error { e.String(s); return nil }
}

// writeCheckpoint cuts the log at pos and writes a checkpoint there.
func writeCheckpoint(t *testing.T, l *Log, pos Checkpoint, body string) Checkpoint {
	t.Helper()
	pos, err := l.Cut(pos)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteCheckpoint(pos, ckptBody(body)); err != nil {
		t.Fatal(err)
	}
	return pos
}

// TestCheckpointRecovery writes six reads and two reports, with a
// checkpoint after every second read, and reopens: recovery offers Restore
// the newest checkpoint with the journal from its seam on — nothing — and
// every report, keeps the newest two checkpoints, and on Restore's refusal
// falls back to the older one, reading the journal from its seam,
// unlinking the refused one.
func TestCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := 0
	for b := netmodel.Bucket(0); b < 6; b++ {
		if err := l.AppendBucket(b, obsFor(b, 3)); err != nil {
			t.Fatal(err)
		}
		if b%3 == 2 {
			if err := l.AppendReport(Report{Seq: int64(reports), From: b - 2, To: b, Canonical: []byte("{}")}); err != nil {
				t.Fatal(err)
			}
			reports++
		}
		if b%2 == 1 {
			writeCheckpoint(t, l, Checkpoint{Reads: int(b) + 1, Bucket: b, Reports: reports}, string(rune('a'+b)))
		}
	}
	if st := l.Stats(); st.LastCheckpoint.Bucket != 5 || st.LastCheckpoint.Bytes == 0 {
		t.Errorf("last checkpoint %+v, want bucket 5 with its bytes", st.LastCheckpoint)
	}
	l.Close()
	if names, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt")); len(names) != 2 {
		t.Fatalf("%d checkpoints kept, want the newest 2: %v", len(names), names)
	}

	var offered []Checkpoint
	refuse := 0
	cfg.Restore = func(ck Checkpoint, rec *Recovery) error {
		offered = append(offered, ck)
		if len(rec.Reports) != 2 {
			t.Errorf("Restore saw %d reports, want all 2", len(rec.Reports))
		}
		if refuse > 0 {
			refuse--
			return errors.New("refused")
		}
		return nil
	}
	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(offered) != 1 || offered[0].Reads != 6 || string(offered[0].Body) != "\x01f" {
		t.Fatalf("Restore offered %+v, want the checkpoint after read 6", offered)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Bucket != 5 || len(rec.Journal) != 0 || len(rec.Rejected) != 0 {
		t.Fatalf("recovered from %+v with %d records after it, %v rejected", rec.Checkpoint, len(rec.Journal), rec.Rejected)
	}
	if rec.JournalSegments != 1 || rec.NextReport != 2 {
		t.Errorf("read %d journal segments, next report %d: want the seam alone and 2", rec.JournalSegments, rec.NextReport)
	}
	if rec.Reports[1].AfterBuckets != 6 {
		t.Errorf("the second report follows %d reads, want 6", rec.Reports[1].AfterBuckets)
	}

	// Refused, the newest is unlinked and the one before it used: the reads
	// after it are decoded.
	offered, refuse = nil, 1
	l, rec, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(offered) != 2 || offered[1].Reads != 4 || len(rec.Rejected) != 1 {
		t.Fatalf("offered %+v, rejected %v: want the refused one, then the one after read 4", offered, rec.Rejected)
	}
	checkJournal(t, rec.Journal, []Record{{Kind: KindRead, Bucket: 4, Served: 3}, {Kind: KindRead, Bucket: 5, Served: 3}})
	if _, err := os.Stat(filepath.Join(dir, ckptName(6))); !os.IsNotExist(err) {
		t.Errorf("the refused checkpoint is still there: %v", err)
	}
}

// TestCheckpointRejectedAtOpen damages checkpoints in the ways Open must
// see through — torn, a stranger's position under the name, a seam that is
// gone, a seam opening at another position — and expects replay from zero
// over every read.
func TestCheckpointRejectedAtOpen(t *testing.T) {
	write := func(dir string, pos Checkpoint, name int, cut int) {
		var buf bytes.Buffer
		if _, err := EncodeCheckpoint(&buf, pos, ckptBody("x")); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ckptName(name)), buf.Bytes()[:buf.Len()-cut], 0o666); err != nil {
			t.Fatal(err)
		}
	}
	// The log's one cut: after read 2, at bucket 1, seam 2.
	for _, tc := range []struct {
		name  string
		write func(dir string)
	}{
		{"torn", func(dir string) { write(dir, Checkpoint{Reads: 2, Bucket: 1, seam: 2}, 2, 2) }},
		{"renamed", func(dir string) { write(dir, Checkpoint{Reads: 1, Bucket: 0, seam: 2}, 2, 0) }},
		{"seam-gone", func(dir string) { write(dir, Checkpoint{Reads: 2, Bucket: 1, seam: 3}, 2, 0) }},
		{"past-history", func(dir string) { write(dir, Checkpoint{Reads: 3, Bucket: 2, seam: 2}, 3, 0) }},
		{"other-bucket", func(dir string) { write(dir, Checkpoint{Reads: 2, Bucket: 7, seam: 2}, 2, 0) }},
		{"other-reports", func(dir string) { write(dir, Checkpoint{Reads: 2, Bucket: 1, Reports: 1, seam: 2}, 2, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Fsync: SyncOff, Meta: "m"}
			l, _, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			l.AppendBucket(0, obsFor(0, 2))
			l.AppendBucket(1, obsFor(1, 2))
			if pos, err := l.Cut(Checkpoint{Reads: 2, Bucket: 1}); err != nil || pos.seam != 2 {
				t.Fatalf("cut at seam %d: %v", pos.seam, err)
			}
			l.Close()
			tc.write(dir)
			cfg.Restore = func(Checkpoint, *Recovery) error {
				t.Error("Restore was offered a checkpoint Open should have rejected")
				return nil
			}
			l, rec, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if rec.Checkpoint != nil || len(rec.Rejected) != 1 || reads(rec.Journal) != 2 {
				t.Fatalf("checkpoint %+v, rejected %v, %d reads: want replay from zero", rec.Checkpoint, rec.Rejected, reads(rec.Journal))
			}
			if names, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*")); len(names) != 0 {
				t.Errorf("rejected checkpoints left behind: %v", names)
			}
		})
	}
}

// TestCheckpointUnremovable puts a non-empty directory where a checkpoint
// belongs: it does not read, so Open rejects it, and the unlink fails. A
// rejected checkpoint left in place could be taken by a later open over a
// history that has moved on, so Open must fail rather than go on.
func TestCheckpointUnremovable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBucket(0, obsFor(0, 2))
	l.Close()
	stuck := filepath.Join(dir, ckptName(1))
	if err := os.MkdirAll(filepath.Join(stuck, "x"), 0o777); err != nil {
		t.Fatal(err)
	}
	cfg.Restore = func(Checkpoint, *Recovery) error {
		t.Error("Restore was offered a checkpoint that does not read")
		return nil
	}
	if l, _, err := Open(dir, cfg); err == nil {
		l.Close()
		t.Fatal("Open went on past a rejected checkpoint it could not unlink")
	}
	if _, err := os.Stat(stuck); err != nil {
		t.Errorf("the unremovable checkpoint: %v", err)
	}
}

// TestBaseDisagreementCutsTheHistory rewrites the base record of a later
// journal segment — framed and CRC-valid, but restating a journal the
// segments before it do not fold to — and reopens from zero: the
// disagreement is corruption, and the journal is cut there, that segment
// and the ones after it discarded, as for a bad frame.
func TestBaseDisagreementCutsTheHistory(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m", SegmentBytes: 256}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := netmodel.Bucket(0); b < 12; b++ {
		if err := l.AppendBatch(obsFor(b, 3)); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBucket(b, obsFor(b, 3)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("%d journal segments, want 3 or more", len(segs))
	}
	path := filepath.Join(dir, "wal-0000000002.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := scanRecords(data[segHeader:], journalKinds)
	base := recs[1].val.(position)
	base.last += 7 // no read was of that bucket
	forged := append([]byte(nil), data[:segHeader]...)
	forged = appendFrame(forged, append([]byte{recMeta}, recs[0].body...))
	forged = appendFrame(forged, appendPosition([]byte{recBase}, base))
	forged = append(forged, data[int64(segHeader)+framedBytes(recs[:2]):]...)
	if err := os.WriteFile(path, forged, 0o666); err != nil {
		t.Fatal(err)
	}
	var discarded int64
	for _, seg := range segs[1:] {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		discarded += st.Size()
	}

	l, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if reads(rec.Journal) != base.reads || rec.TruncatedBytes != discarded {
		t.Fatalf("recovered %d reads, %d bytes truncated: want the %d before segment 2 and its %d bytes on", reads(rec.Journal), rec.TruncatedBytes, base.reads, discarded)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(left) != 1 {
		t.Fatalf("journal segments left: %v, want the first alone", left)
	}
}

// TestCompactionUnlinksBeforeTheOlderSeam keeps two checkpoints of three
// and compacts: the pass unlinks the journal before the older seam and
// the reports segments before the first report the older one names, and
// nothing else. Recovery from either checkpoint is unchanged — killed
// after each unlink as well — and zero is no longer a fallback: refusing
// both checkpoints fails the open, naming each.
func TestCompactionUnlinksBeforeTheOlderSeam(t *testing.T) {
	cfg := Config{Fsync: SyncOff, Meta: "m", SegmentBytes: 200}
	// build writes 12 reads and a report after each; a checkpoint after
	// every fourth read names the two reports before it.
	build := func(t *testing.T) (string, *Log) {
		dir := t.TempDir()
		l, _, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for b := netmodel.Bucket(0); b < 12; b++ {
			if err := l.AppendBucket(b, obsFor(b, 2)); err != nil {
				t.Fatal(err)
			}
			if err := l.AppendReport(Report{Seq: int64(b), From: b, To: b, Canonical: []byte(`{"report":"padded to fill a segment"}`)}); err != nil {
				t.Fatal(err)
			}
			if b%4 == 3 {
				writeCheckpoint(t, l, Checkpoint{Reads: int(b) + 1, Bucket: b, Reports: int(b) + 1, Keep: int(b) - 1}, string(rune('a'+b)))
			}
		}
		return dir, l
	}
	files := func(dir, pattern string) []string {
		names, _ := filepath.Glob(filepath.Join(dir, pattern))
		for i := range names {
			names[i] = filepath.Base(names[i])
		}
		return names
	}
	restoring := func(offered *[]int, refuse int) Config {
		c := cfg
		c.Restore = func(ck Checkpoint, rec *Recovery) error {
			*offered = append(*offered, ck.Reads)
			if len(*offered) <= refuse {
				return errors.New("refused")
			}
			if rec.Report(ck.Keep) == nil {
				t.Errorf("the reports family lost report %d, which checkpoint %d names", ck.Keep, ck.Reads)
			}
			return nil
		}
		return c
	}

	// A log never compacted, for what each recovery reads.
	refDir, ref := build(t)
	ref.Close()
	var offered []int
	_, want, err := Open(refDir, restoring(&offered, 0))
	if err != nil {
		t.Fatal(err)
	}
	oldestSeam := slices.Min(func() []uint64 {
		var seams []uint64
		for _, c := range ref.ckpts {
			seams = append(seams, c.seam)
		}
		return seams
	}())

	dir, l := build(t)
	histBefore, repsBefore := files(dir, "wal-*.log"), files(dir, "reports-*.log")
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	unlinked := l.Stats().LastCompact.Segments
	l.Close()
	hist, reps := files(dir, "wal-*.log"), files(dir, "reports-*.log")
	if want := fmt.Sprintf("wal-%010d.log", oldestSeam); hist[0] != want || len(histBefore)-len(hist) != int(oldestSeam)-1 {
		t.Fatalf("the journal after the pass is %v, want it to start at the older seam, %s", hist, want)
	}
	if len(reps) >= len(repsBefore) {
		t.Fatalf("the pass left every reports segment: %v", reps)
	}
	if unlinked != len(histBefore)-len(hist)+len(repsBefore)-len(reps) {
		t.Fatalf("the pass booked %d unlinked segments", unlinked)
	}

	reopen := func(t *testing.T, dir string) {
		offered = nil
		l, rec, err := Open(dir, restoring(&offered, 0))
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if len(offered) != 1 || rec.Checkpoint.Reads != 12 || rec.JournalSegments != 1 {
			t.Fatalf("offered %v, restored %+v from %d journal segments: want the newest from its seam", offered, rec.Checkpoint, rec.JournalSegments)
		}
		checkProjectionsEqual(t, project(rec), project(want))
	}
	reopen(t, dir)

	// Killed after each unlink, a pass leaves a state every recovery reads
	// the same.
	for kill := 1; kill <= unlinked; kill++ {
		dir, l := build(t)
		n := 0
		l.testStep = func(phase string) bool {
			if phase == "unlinked" {
				n++
			}
			return n < kill
		}
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Abandon()
		reopen(t, dir)
	}

	// The older checkpoint still restores; with both refused there is no
	// zero to fall back to.
	offered = nil
	l, rec, err := Open(dir, restoring(&offered, 1))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if rec.Checkpoint.Reads != 8 || reads(rec.Journal) != 4 || len(rec.Rejected) != 1 {
		t.Fatalf("refusing the newest: restored %+v with %d reads after it, %v rejected", rec.Checkpoint, reads(rec.Journal), rec.Rejected)
	}
	names := files(dir, "checkpoint-*.ckpt")
	offered = nil
	if _, _, err := Open(dir, restoring(&offered, 2)); err == nil || len(offered) != 1 || !strings.Contains(err.Error(), names[0]) {
		t.Fatalf("refusing every checkpoint: offered %v, err %v: want a failure naming %s", offered, err, names[0])
	}
	if after := files(dir, "checkpoint-*.ckpt"); !slices.Equal(after, names) {
		t.Fatalf("the failed open left checkpoints %v, had %v", after, names)
	}
}

// TestDecodeCheckpointVersion holds DecodeCheckpoint to its version: a
// checkpoint whose header names another one — framed, CRC-valid — is
// refused, naming both.
func TestDecodeCheckpointVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := EncodeCheckpoint(&buf, Checkpoint{Reads: 2, Bucket: 1, seam: 2}, ckptBody("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(buf.Bytes()); err != nil {
		t.Fatalf("this version's checkpoint: %v", err)
	}
	for _, v := range []byte{2, 3, 5} {
		data := slices.Clone(buf.Bytes())
		data[len(ckptMagic)] = v // the version, one varint byte
		data = binary.LittleEndian.AppendUint32(data[:len(data)-4], crc32.Checksum(data[:len(data)-4], ckpt.Table))
		want := fmt.Sprintf("format version %d, this build reads %d", v, ckptVersion)
		if _, err := DecodeCheckpoint(data); err == nil || err.Error() != want {
			t.Errorf("version %d: %v, want %q", v, err, want)
		}
	}
}
