package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Compact unlinks the segments no recovery needs any more. A batch of
// either feed is redundant once the reads have settled every observation
// or cell in it (Horizon) — the bucket records restate what was served,
// and what a read discarded must stay gone — and a journaled report
// covers its highest bucket. With two checkpoints kept, the history
// before the older one's seam and the reports before the first one it
// names feed no recovery either: one starts at a seam, and zero is given
// up. A pass does four things:
//
//   - it seals the accepted family's active segment, so that the batches
//     in it can go once they are settled, and copies the evidence;
//   - with two checkpoints kept, it fsyncs both, so that no history goes
//     on a checkpoint a power loss could take back;
//   - it fsyncs the history's active segment, so that the evidence it
//     judges by is durable: no acknowledged batch goes on evidence a power
//     loss could take back;
//   - it unlinks, oldest first, every history segment wholly before the
//     older seam, every sealed reports segment wholly before the older
//     checkpoint's first report, and every sealed accepted segment whose
//     batches are all settled and covered.
//
// The history is never rewritten, so a directory keeps about two days of
// it (from the older seam on) plus the reports the checkpoints retain and
// about two cadences of batches.
//
// A pass reads no segment and writes no file beyond the sealing: the lock
// is held only while it seals and books, and appends never wait for an
// fsync or an unlink. A crash leaves any subset of the doomed segments
// unlinked, the history's oldest first; each is invisible to the
// recoveries that remain (from either checkpoint, and from zero while the
// history's first segment is there), so every such state recovers the
// same.
func (l *Log) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	start := time.Now()
	if !l.step("begin") {
		return nil
	}
	// Flushing what has piled up since the last sync without the lock
	// leaves the locked fsync of the seal below next to nothing to do.
	l.syncBehind()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: log closed")
	}
	if l.acc.size > l.acc.fresh {
		if err := l.rotateLocked(&l.acc); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	ev, hist := evidence{reads: l.pos.horizon, reportTo: l.reportTo}, l.hist.f
	accDoomed := l.acc.take(func(s segment) bool { return s.droppable(ev) })
	var kept []ckptFile
	if n := len(l.ckpts); n >= ckptKeep {
		kept = append(kept, l.ckpts[n-2:]...)
	}
	l.mu.Unlock()

	var histDoomed, repDoomed []segment
	if older, ok := l.durable(kept); ok {
		l.mu.Lock()
		histDoomed = l.hist.take(func(s segment) bool { return s.seq < older.seam })
		repDoomed = l.reps.take(func(s segment) bool { return s.next <= older.keep })
		l.mu.Unlock()
	}

	// The evidence goes to disk before anything goes by it. Everything in
	// it was written before this fsync began; a history segment sealed
	// meanwhile was fsynced by the sealing, before its file was closed.
	if !l.step("pre-sync") {
		return nil
	}
	if err := hist.Sync(); err != nil {
		l.mu.Lock()
		sealed := l.hist.f != hist
		l.mu.Unlock()
		if !sealed {
			return fmt.Errorf("wal: compacting: %w", err)
		}
	}

	pass := CompactPass{Reads: ev.reads.Len(), ReportTo: ev.reportTo}
	for _, d := range []struct {
		fam  *family
		segs []segment
	}{{&l.hist, histDoomed}, {&l.reps, repDoomed}, {&l.acc, accDoomed}} {
		for _, seg := range d.segs {
			path := filepath.Join(l.dir, d.fam.segName(seg.seq))
			if seg.size == 0 {
				// A history segment before the seam recovery started at:
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
