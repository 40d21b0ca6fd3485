package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Compact unlinks the accepted segments later history has made redundant.
// A batch of either feed is redundant once the reads have settled every
// observation or cell in it (Horizon) — the bucket records restate what
// was served, and what a read discarded must stay gone — and a journaled
// report covers its highest bucket. A pass does three things:
//
//   - it seals the accepted family's active segment, so that the batches
//     in it can go once they are settled, and copies the evidence;
//   - it fsyncs the history's active segment, so that the evidence it
//     judges by is durable: no acknowledged batch goes on evidence a power
//     loss could take back;
//   - it unlinks every sealed accepted segment whose batches are all
//     settled and covered.
//
// The history is never rewritten: the pipeline's learned state is a
// function of the full consumed history, and replay-from-zero is what
// makes recovery byte-exact. The log's steady state is one copy of the
// consumed trace plus the report log, and about two cadences of batches.
//
// A pass reads no segment and writes no file beyond the sealing: the lock
// is held only while it seals, and appends never wait for the history
// fsync or an unlink. A crash leaves any subset of the doomed segments unlinked, and
// each of them is invisible to recovery (it would have skipped their
// batches anyway), so every such state recovers the same.
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
	if l.acc.size > l.freshSize() {
		if err := l.rotateLocked(&l.acc); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	ev, hist := l.ev, l.hist.f
	var doomed []batchSeg
	kept := l.sealed[:0]
	for _, seg := range l.sealed {
		if seg.droppable(ev) {
			doomed = append(doomed, seg)
		} else {
			kept = append(kept, seg)
		}
	}
	l.sealed = kept
	l.mu.Unlock()

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
	for _, seg := range doomed {
		if err := os.Remove(filepath.Join(l.dir, l.acc.segName(seg.seq))); err != nil {
			return fmt.Errorf("wal: compacting: %w", err)
		}
		pass.Segments++
		pass.Bytes += seg.size
		if !l.step("unlinked") {
			return nil
		}
	}
	if len(doomed) > 0 {
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

func (l *Log) step(phase string) bool {
	if l.compactStep == nil {
		return true
	}
	return l.compactStep(phase)
}
