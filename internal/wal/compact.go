package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"blameit/internal/netmodel"
)

// Compact drops the records later history has made redundant, one sealed
// segment at a time:
//
//   - A batch or agg-batch record goes once the reads have settled every
//     observation or cell in it (Horizon) — the bucket records restate what
//     was served, and what a read discarded must stay gone — and a
//     journaled report covers its highest bucket. Until then it is kept
//     whole.
//   - A seal record goes once a higher seal is journaled.
//
// Bucket and report records are never dropped: the pipeline's
// learned state is a function of the full consumed history, and
// replay-from-zero is what makes recovery byte-exact. The log's steady
// state is one copy of the consumed trace plus the report log.
//
// A pass seals the active segment under the lock and does everything else
// without it, so appends never wait for a rewrite. It judges only by
// history in sealed segments, which are fsynced: no acknowledged batch is
// dropped on evidence a power loss could take back. Each segment that may
// still hold a droppable record is streamed frame by frame — length, CRC
// and body shape checked as on open, nothing decoded — with the kept
// frames copied verbatim into a .tmp that is fsynced and renamed over the
// segment. A segment with no batch left is never visited again, so a pass
// costs the bytes appended since the last one, not the log's length.
//
// A crash leaves every segment either as it was or rewritten; a .tmp left
// behind is deleted on open. Dropping is invisible to recovery (it would
// have skipped the dropped records anyway), so any mix of the two states
// recovers the same.
func (l *Log) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	// Sealing fsyncs the active segment under the lock; flushing what has
	// piled up since the last sync first, without it, leaves the locked
	// fsync next to nothing to do.
	l.syncBehind()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: log closed")
	}
	if l.size > l.freshSize() {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	ev := l.ev
	todo := append([]segment(nil), l.dirty...)
	l.mu.Unlock()

	if !l.step("begin") {
		return nil
	}
	var read, written int64
	clean := make(map[uint64]bool)
	for _, seg := range todo {
		res, err := l.compactSegment(seg, ev)
		if err != nil {
			return err
		}
		if res.abandoned {
			return nil
		}
		read += res.read
		written += res.written
		if !res.pending {
			clean[seg.seq] = true
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	still := l.dirty[:0]
	for _, seg := range l.dirty {
		if !clean[seg.seq] {
			still = append(still, seg)
		}
	}
	l.dirty = still
	l.stats.Compactions++
	l.stats.LastCompactReadBytes, l.stats.LastCompactWrittenBytes = read, written
	return nil
}

func (l *Log) step(phase string) bool {
	if l.compactStep == nil {
		return true
	}
	return l.compactStep(phase)
}

// segmentResult is what filtering one segment came to.
type segmentResult struct {
	read, written int64
	// pending: a batch of either feed is still in the segment, so a later
	// pass must look again.
	pending bool
	// abandoned: the test hook stopped the pass here.
	abandoned bool
}

// compactSegment filters one sealed segment through the evidence. Any
// error leaves the segment file as it was.
func (l *Log) compactSegment(seg segment, ev evidence) (res segmentResult, err error) {
	path := filepath.Join(l.dir, segName(seg.seq))
	fail := func(err error) (segmentResult, error) {
		return res, fmt.Errorf("wal: compacting %s: %w", path, err)
	}
	src, err := os.Open(path)
	if err != nil {
		return fail(err)
	}
	defer src.Close()
	st, err := src.Stat()
	if err != nil {
		return fail(err)
	}
	fr := newFrameReader(src, st.Size())
	head, err := fr.header()
	if err != nil {
		return fail(err)
	}

	tmpPath := path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fail(err)
	}
	// Until the rename, the .tmp is this function's to clean up — except
	// when the test hook abandons the pass, which leaves what a kill would.
	renamed := false
	defer func() {
		tmp.Close()
		if !renamed && !res.abandoned {
			os.Remove(tmpPath)
		}
	}()
	// Kept frames are mostly larger than any sensible buffer and pass
	// straight through; the buffer gathers the small ones between them.
	w := bufio.NewWriterSize(tmp, 64<<10)
	w.Write(head) // a failed write sticks and surfaces at Flush
	written := int64(len(head))

	reads := seg.reads
	dropped := false
	for {
		frame, typ, high, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Rewriting would silently cut the segment at the bad frame:
			// leave it for the next open to truncate and report.
			return fail(fmt.Errorf("%w at offset %d of %d", err, fr.off, st.Size()))
		}
		keep := true
		switch typ {
		case recBucket:
			reads++
		case recBatch, recAggBatch:
			keep = !(ev.reads.Reached(reads, high) && high <= ev.reportTo)
			res.pending = res.pending || keep
		case recSeal:
			keep = high >= ev.maxSeal
		}
		if keep {
			w.Write(frame)
			written += int64(len(frame))
		} else {
			dropped = true
		}
	}
	res.read = fr.off
	if !dropped {
		return res, nil // the deferred clean-up discards the copy
	}
	res.written = written

	if !l.step("pre-sync") {
		res.abandoned = true
		return res, nil
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if !l.step("pre-rename") {
		res.abandoned = true
		return res, nil
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return fail(err)
	}
	renamed = true
	if !l.step("post-rename") {
		res.abandoned = true
		return res, nil
	}
	if err := syncDir(l.dir); err != nil {
		return fail(err)
	}
	return res, nil
}

// errBadFrame marks bytes scanRecords would refuse: a torn or over-long
// frame, a CRC mismatch, an unknown type or an undecodable body.
var errBadFrame = errors.New("invalid record")

// frameReader streams a segment's frames, accepting exactly the prefix
// scanRecords accepts, without holding more than one frame in memory.
type frameReader struct {
	r    *bufio.Reader
	size int64
	off  int64 // bytes consumed as valid: the header and whole frames
	buf  []byte
}

func newFrameReader(r io.Reader, size int64) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64<<10), size: size, buf: make([]byte, 4<<10)}
}

// header reads and checks the segment header.
func (fr *frameReader) header() ([]byte, error) {
	head := make([]byte, segHeader)
	if _, err := io.ReadFull(fr.r, head); err != nil {
		return nil, fmt.Errorf("reading segment header: %w", err)
	}
	if string(head[:len(segMagic)]) != segMagic || binary.LittleEndian.Uint32(head[len(segMagic):]) != segVersion {
		return nil, errors.New("not a segment of this format version")
	}
	fr.off = int64(segHeader)
	return head, nil
}

// next returns the next frame — header and payload, valid until the call
// after — with its record type and high bucket (decodeBody); io.EOF at a
// clean end; errBadFrame, or the read error, otherwise.
func (fr *frameReader) next() (frame []byte, typ byte, high netmodel.Bucket, err error) {
	hdr := fr.buf[:frameHeader]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errBadFrame
		}
		return nil, 0, 0, err
	}
	n, ok := frameLen(hdr)
	if !ok || n > fr.size-fr.off-frameHeader {
		return nil, 0, 0, errBadFrame
	}
	if need := frameHeader + int(n); need > len(fr.buf) {
		fr.buf = append(make([]byte, 0, need+need/4), hdr...)[:need+need/4]
	}
	frame = fr.buf[:frameHeader+n]
	payload := frame[frameHeader:]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errBadFrame // the file shrank under us
		}
		return nil, 0, 0, err
	}
	if !crcMatches(frame, payload) {
		return nil, 0, 0, errBadFrame
	}
	if _, high, ok = decodeBody(payload[0], payload[1:], false); !ok {
		return nil, 0, 0, errBadFrame
	}
	fr.off += int64(len(frame))
	return frame, payload[0], high, nil
}
