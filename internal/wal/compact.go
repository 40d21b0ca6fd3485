package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Compact unlinks the segments no recovery needs any more. Recovery
// starts at a kept checkpoint's seam, and zero is given up once two are
// kept: the journal before the older one's seam and the reports before
// the first one it names feed no recovery. A pass
//
//   - fsyncs both kept checkpoints, so that no journal goes on a
//     checkpoint a power loss could take back;
//   - unlinks, oldest first, every journal segment wholly before the older
//     seam and every sealed reports segment wholly before the older
//     checkpoint's first report.
//
// The journal is never rewritten, so a directory keeps about two days of
// it (from the older seam on) plus the reports the checkpoints retain;
// before its second checkpoint it keeps everything.
//
// A pass reads no segment and writes no file: the lock is held only while
// it books, and appends never wait for an fsync or an unlink. A crash
// leaves any subset of the doomed segments unlinked, the journal's oldest
// first; each is invisible to the recoveries that remain, from either
// checkpoint, so every such state recovers the same.
func (l *Log) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	start := time.Now()
	if !l.step("begin") {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: log closed")
	}
	var kept []ckptFile
	if n := len(l.ckpts); n >= ckptKeep {
		kept = append(kept, l.ckpts[n-2:]...)
	}
	l.mu.Unlock()

	if !l.step("pre-sync") {
		return nil
	}
	var jrnDoomed, repDoomed []segment
	if older, ok := l.durable(kept); ok {
		l.mu.Lock()
		jrnDoomed = l.jrn.take(func(s segment) bool { return s.seq < older.seam })
		repDoomed = l.reps.take(func(s segment) bool { return s.next <= older.keep })
		l.mu.Unlock()
	}

	var pass CompactPass
	for _, d := range []struct {
		fam  *family
		segs []segment
	}{{&l.jrn, jrnDoomed}, {&l.reps, repDoomed}} {
		for _, seg := range d.segs {
			path := filepath.Join(l.dir, d.fam.segName(seg.seq))
			if seg.size == 0 {
				// A journal segment before the seam recovery started at:
				// booked, never read.
				if st, err := os.Stat(path); err == nil {
					seg.size = st.Size()
				}
			}
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: compacting: %w", err)
			}
			pass.Segments++
			pass.Bytes += seg.size
			if !l.step("unlinked") {
				return nil
			}
		}
	}
	if pass.Segments > 0 {
		if err := syncDir(l.dir); err != nil {
			return fmt.Errorf("wal: compacting: %w", err)
		}
	}
	pass.Duration = time.Since(start)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Segments -= pass.Segments
	l.stats.Compactions++
	l.stats.LastCompact = pass
	return nil
}

// take removes the sealed segments doomed names from the family's books
// and returns them, oldest first. Caller holds mu.
func (fam *family) take(doomed func(segment) bool) []segment {
	var taken []segment
	kept := fam.sealed[:0]
	for _, s := range fam.sealed {
		if doomed(s) {
			taken = append(taken, s)
		} else {
			kept = append(kept, s)
		}
	}
	fam.sealed = kept
	return taken
}

// durable returns the older of the two kept checkpoints, once both are
// known — one this process neither wrote nor restored is read and checked
// first — and fsynced, with the older seam before the newer. Otherwise
// nothing may go by them.
func (l *Log) durable(kept []ckptFile) (ckptFile, bool) {
	if len(kept) != ckptKeep {
		return ckptFile{}, false
	}
	for i, c := range kept {
		if c.seam == 0 {
			ck, err := readCheckpoint(l.dir, c.reads)
			if err != nil {
				return ckptFile{}, false
			}
			kept[i].seam, kept[i].keep = ck.seam, ck.Keep
			l.mu.Lock()
			for j := range l.ckpts {
				if l.ckpts[j].reads == c.reads {
					l.ckpts[j] = kept[i]
				}
			}
			l.mu.Unlock()
		}
		if err := syncFile(filepath.Join(l.dir, ckptName(c.reads))); err != nil {
			return ckptFile{}, false
		}
	}
	older, newer := kept[0], kept[1]
	return older, older.seam < newer.seam && older.keep <= newer.keep
}

// syncFile fsyncs a file written without one.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (l *Log) step(phase string) bool {
	if l.testStep == nil {
		return true
	}
	return l.testStep(phase)
}
