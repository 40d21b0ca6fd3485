package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

// ckptBody encodes a stand-in state: the bytes of s.
func ckptBody(s string) func(*ckpt.Encoder) error {
	return func(e *ckpt.Encoder) error { e.String(s); return nil }
}

// TestCheckpointRecovery writes six reads and two reports, with a
// checkpoint after every second read, and reopens: recovery offers Restore
// the newest checkpoint with the reads after it alone decoded and every
// report, keeps the newest two checkpoints, and on Restore's refusal falls
// back to the older one, unlinking the refused one.
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
			pos := Checkpoint{Reads: int(b) + 1, Bucket: b, Reports: reports}
			if _, err := l.WriteCheckpoint(pos, ckptBody(string(rune('a'+b)))); err != nil {
				t.Fatal(err)
			}
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
	if rec.Checkpoint == nil || rec.Checkpoint.Bucket != 5 || len(rec.Buckets) != 0 || len(rec.Rejected) != 0 {
		t.Fatalf("recovered from %+v with %d reads after it, %v rejected", rec.Checkpoint, len(rec.Buckets), rec.Rejected)
	}
	if rec.Reports[1].AfterBuckets != 6 {
		t.Errorf("the second report follows %d reads, want 6", rec.Reports[1].AfterBuckets)
	}

	// Refused, the newest is unlinked and the one before it used: the reads
	// after it are decoded in full.
	offered, refuse = nil, 1
	l, rec, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(offered) != 2 || offered[1].Reads != 4 || len(rec.Rejected) != 1 {
		t.Fatalf("offered %+v, rejected %v: want the refused one, then the one after read 4", offered, rec.Rejected)
	}
	if len(rec.Buckets) != 2 || rec.Buckets[0].Bucket != 4 || !obsEqual(rec.Buckets[1].Obs, obsFor(5, 3)) {
		t.Fatalf("recovered %d reads after the checkpoint, want buckets 4 and 5 decoded", len(rec.Buckets))
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(6))); !os.IsNotExist(err) {
		t.Errorf("the refused checkpoint is still there: %v", err)
	}
}

// TestCheckpointRejectedAtOpen damages checkpoints in the ways Open must
// see through — torn, a stranger's position under the name, past the
// history — and expects replay from zero over every read.
func TestCheckpointRejectedAtOpen(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(dir string)
	}{
		{"torn", func(dir string) {
			var buf bytes.Buffer
			if _, err := EncodeCheckpoint(&buf, Checkpoint{Reads: 2, Bucket: 1}, ckptBody("x")); err != nil {
				t.Fatal(err)
			}
			os.WriteFile(filepath.Join(dir, ckptName(2)), buf.Bytes()[:buf.Len()-2], 0o666)
		}},
		{"renamed", func(dir string) {
			var buf bytes.Buffer
			EncodeCheckpoint(&buf, Checkpoint{Reads: 1, Bucket: 0}, ckptBody("x"))
			os.WriteFile(filepath.Join(dir, ckptName(2)), buf.Bytes(), 0o666)
		}},
		{"past-history", func(dir string) {
			var buf bytes.Buffer
			EncodeCheckpoint(&buf, Checkpoint{Reads: 3, Bucket: 2}, ckptBody("x"))
			os.WriteFile(filepath.Join(dir, ckptName(3)), buf.Bytes(), 0o666)
		}},
		{"other-bucket", func(dir string) {
			var buf bytes.Buffer
			EncodeCheckpoint(&buf, Checkpoint{Reads: 2, Bucket: 7}, ckptBody("x"))
			os.WriteFile(filepath.Join(dir, ckptName(2)), buf.Bytes(), 0o666)
		}},
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
			if rec.Checkpoint != nil || len(rec.Rejected) != 1 || len(rec.Buckets) != 2 {
				t.Fatalf("checkpoint %+v, rejected %v, %d reads: want replay from zero", rec.Checkpoint, rec.Rejected, len(rec.Buckets))
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
