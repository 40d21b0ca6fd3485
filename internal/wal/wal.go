// Package wal is blameitd's durability layer: a checksummed,
// length-prefixed, append-only write-ahead log over rotating segment
// files. The daemon journals the ingest queue's externally visible events
// — accepted batches of either feed (raw observations, aggregate cells),
// explicit seals, and the exact per-bucket streams the pipeline consumed —
// plus every published report. Because the pipeline's state is a
// deterministic function of the consumed observation streams, replaying
// the journaled buckets through the unchanged WarmupContext/StepContext
// path reconstructs the backend exactly, and a restart (including kill -9
// mid-window) serves /v1/reports byte-identical to an uninterrupted run.
//
// Durability semantics by fsync policy:
//
//	always    every append reaches the disk before the caller proceeds —
//	          acknowledged data survives power loss.
//	interval  a background flusher syncs on a timer — acknowledged data
//	          survives process death; power loss can lose the last window.
//	off       the OS flushes when it pleases — acknowledged data survives
//	          process death only.
//
// Process death (kill -9 included) never loses an acknowledged record
// under any policy: every append is one write(2) of a fully framed record
// with no userspace buffering, and the kernel keeps page-cache writes
// from dead processes. fsync only moves the power-loss line.
//
// Torn and corrupt tails: the scanner validates every record's CRC and
// body on open, truncates the log at the last valid record, deletes any
// later segments, and reports the discarded byte count so the daemon can
// surface it in /healthz.
//
// Replay-from-zero keeps every consumed bucket and report for good; what
// compaction (Compact) removes is the second copy — the accepted batches,
// once later history has settled them (Horizon).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// Policy selects when appended records are fsynced.
type Policy string

const (
	SyncAlways   Policy = "always"
	SyncInterval Policy = "interval"
	SyncOff      Policy = "off"
)

// ParsePolicy resolves a -fsync flag value.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case SyncAlways, SyncInterval, SyncOff:
		return Policy(s), nil
	case "":
		return SyncInterval, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// Config tunes the log. Zero values take the defaults below.
type Config struct {
	// Fsync is the durability policy; see the package comment.
	Fsync Policy
	// FsyncInterval is the flush cadence under SyncInterval.
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it would exceed this.
	SegmentBytes int64
	// Meta is the daemon's configuration fingerprint. It is journaled as
	// the first record of every segment and must match on reopen: a WAL
	// replayed under different pipeline flags would diverge silently, so
	// a mismatch refuses to open instead.
	Meta string
}

const (
	DefaultFsyncInterval = 100 * time.Millisecond
	DefaultSegmentBytes  = 64 << 20
)

// maxRecordBytes bounds one record; larger appends fail and larger lengths
// found on disk are treated as corruption.
const maxRecordBytes = 64 << 20

func (c Config) withDefaults() Config {
	if c.Fsync == "" {
		c.Fsync = SyncInterval
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = DefaultFsyncInterval
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	return c
}

// ErrMetaMismatch means the directory's WAL was written by a daemon with
// different configuration; replaying it here would diverge.
var ErrMetaMismatch = errors.New("wal: configuration fingerprint mismatch")

// Stats is a point-in-time view of the log's activity.
type Stats struct {
	AppendedRecords int64
	AppendedBytes   int64
	Syncs           int64
	// LagRecords counts appended records not yet fsynced — the window a
	// power loss (not a process death) could lose.
	LagRecords  int64
	Segments    int
	Compactions int64
	// LastCompactReadBytes and LastCompactWrittenBytes are the segment
	// bytes the most recent compaction pass read and wrote: a pass costs
	// the bytes appended since the one before, not the log's length.
	LastCompactReadBytes    int64
	LastCompactWrittenBytes int64
}

// BucketStream is one consumed bucket: the exact observation stream —
// stale arrivals first, then pending records in arrival order — the
// ingest queue served to the pipeline.
type BucketStream struct {
	Bucket netmodel.Bucket
	Obs    []trace.Observation
}

// Report is one journaled published report.
type Report struct {
	Seq       int64
	From, To  netmodel.Bucket
	Final     bool
	Canonical []byte
	// AfterBuckets is how many consumed-bucket records preceded this
	// report in the log. It is derived at scan time, not encoded: recovery
	// uses it to run a final report's drain flush again after the same
	// replayed read.
	AfterBuckets int
}

// Batch is one accepted ingest batch in push order: raw observations
// (POST /v1/ingest) or aggregate cells (POST /v1/aggregates), never both.
type Batch struct {
	Obs   []trace.Observation
	Cells []ingest.AggCell
	// AfterBuckets is how many consumed-bucket records preceded this
	// batch in the log — i.e. which reads had already happened when it
	// arrived. Derived at scan time, like Report.AfterBuckets: it is the
	// position Recovery.Reads judges the batch's records from (served or
	// discarded by a later read, or still queued).
	AfterBuckets int
}

// Recovery is everything a scan of the directory reconstructs.
type Recovery struct {
	// Buckets are the consumed per-bucket streams, in consumption order.
	Buckets []BucketStream
	// Batches are the accepted-but-possibly-unconsumed ingest batches in
	// push order. Recovery re-pushes what the consumed streams did not
	// already settle.
	Batches []Batch
	// Reports are the journaled published reports in publish order.
	Reports []Report
	// MaxSeal is the highest explicitly sealed bucket, or -1.
	MaxSeal netmodel.Bucket
	// Reads is the settle rule over Buckets: Reads.Reached(batch.AfterBuckets,
	// o.Bucket) says whether a later read served or discarded record o of a
	// batch, so that recovery re-queues exactly the rest.
	Reads Horizon
	// TruncatedBytes is how much corrupt tail the open discarded.
	TruncatedBytes int64
	Segments       int

	// The rest of what compaction judges by; see evidence.
	reportTo netmodel.Bucket
}

// evidence is the journaled history compaction may act on. The log keeps
// it current as it appends; a compaction pass copies it right after
// sealing the active segment, when all of it is in fsynced files.
type evidence struct {
	reads Horizon
	// reportTo is the highest window end among journaled reports, or -1.
	reportTo netmodel.Bucket
	maxSeal  netmodel.Bucket
}

// segment is one segment file as compaction sees it.
type segment struct {
	seq uint64
	// reads counts the bucket records journaled before the segment's first
	// record: the position its batches are judged from.
	reads int
}

// Empty reports whether the scan found nothing to replay.
func (r *Recovery) Empty() bool {
	return len(r.Buckets) == 0 && len(r.Batches) == 0 && len(r.Reports) == 0 && r.MaxSeal < 0
}

// Log is the append side. All methods are safe for concurrent use.
type Log struct {
	dir string
	cfg Config

	// compactMu serializes compaction passes. It is taken before mu and
	// held for the whole pass; mu is held only while the pass seals the
	// active segment and while it books its result.
	compactMu sync.Mutex

	mu     sync.Mutex
	f      *os.File
	active segment
	size   int64 // active segment size
	stats  Stats
	closed bool
	ev     evidence
	// dirty lists, oldest first, the sealed segments that may still hold a
	// record compaction can drop. A segment leaves the list for good once
	// a pass finds no batch left in it.
	dirty []segment

	buf []byte // frame buffer, reused under mu

	stop     chan struct{} // interval flusher shutdown
	syncDone chan struct{}

	// compactStep, when set (tests), is called between compaction phases,
	// with mu not held, so crash points inside the compaction protocol can
	// be exercised deterministically. Returning false abandons the
	// compaction at that point, files as they are, as a kill would.
	compactStep func(phase string) bool
}

func segName(seq uint64) string { return fmt.Sprintf("wal-%010d.log", seq) }

// Open scans dir (created if missing), recovers its contents, truncates
// any corrupt tail, and returns the log opened for append plus the
// recovery state. The returned Recovery is never nil. A directory written
// in another format version is refused, not converted.
func Open(dir string, cfg Config) (*Log, *Recovery, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A compaction that died before its rename; its contents are
			// not part of the log.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	rec := &Recovery{MaxSeal: -1, reportTo: -1}
	l := &Log{dir: dir, cfg: cfg}

	// Scan segments in order. The first corruption truncates: the file is
	// cut back to its last valid record and every later segment is
	// discarded — replay needs a consistent prefix, and anything after a
	// corrupt record has no trustworthy ordering against it.
	var segs []segment
	truncatedFrom := -1
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if len(data) < segHeader || string(data[:len(segMagic)]) != segMagic {
			truncatedFrom = i
			break
		}
		if v := binary.LittleEndian.Uint32(data[len(segMagic):]); v != segVersion {
			return nil, nil, fmt.Errorf("wal: %s is in format version %d and this build reads only version %d: start from an empty data directory", path, v, segVersion)
		}
		seg := segment{seq: seq, reads: rec.Reads.Len()}
		recs, valid := scanRecords(data[segHeader:])
		droppable, err := interpret(rec, recs, cfg.Meta)
		if err != nil {
			return nil, nil, err
		}
		segs = append(segs, seg)
		if droppable {
			l.dirty = append(l.dirty, seg)
		}
		if int(valid) < len(data)-segHeader {
			rec.TruncatedBytes += int64(len(data)-segHeader) - valid
			if err := os.Truncate(path, int64(segHeader)+valid); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating corrupt tail: %w", err)
			}
			truncatedFrom = i + 1
			break
		}
	}
	if truncatedFrom >= 0 {
		for _, seq := range seqs[truncatedFrom:] {
			path := filepath.Join(dir, segName(seq))
			if st, err := os.Stat(path); err == nil {
				rec.TruncatedBytes += st.Size()
			}
			// A discarded segment that stayed would be read as live history
			// by the next open.
			if err := os.Remove(path); err != nil {
				return nil, nil, fmt.Errorf("wal: discarding segment after corruption: %w", err)
			}
		}
	}
	rec.Segments = len(segs)
	l.ev = evidence{reads: rec.Reads, reportTo: rec.reportTo, maxSeal: rec.MaxSeal}

	if len(segs) == 0 {
		f, err := l.createSegment(1)
		if err != nil {
			return nil, nil, err
		}
		l.f, l.size, l.active = f, l.freshSize(), segment{seq: 1}
		l.stats.Segments = 1
	} else {
		// The last segment goes on taking appends; it is not sealed.
		l.active = segs[len(segs)-1]
		if n := len(l.dirty); n > 0 && l.dirty[n-1].seq == l.active.seq {
			l.dirty = l.dirty[:n-1]
		}
		path := filepath.Join(dir, segName(l.active.seq))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.size = f, st.Size()
		l.stats.Segments = len(segs)
	}

	if cfg.Fsync == SyncInterval {
		l.stop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.flusher()
	}
	return l, rec, nil
}

// interpret folds one segment's scanned records into the recovery state,
// and reports whether the segment holds records compaction could drop one
// day: batches of either feed.
func interpret(rec *Recovery, recs []rawRecord, wantMeta string) (droppable bool, err error) {
	for _, r := range recs {
		switch r.typ {
		case recMeta:
			if got := r.val.(string); got != wantMeta {
				return false, fmt.Errorf("%w: log written under %q, reopened under %q", ErrMetaMismatch, got, wantMeta)
			}
		case recBatch:
			droppable = true
			rec.Batches = append(rec.Batches, Batch{Obs: r.val.([]trace.Observation), AfterBuckets: len(rec.Buckets)})
		case recBucket:
			bs := r.val.(BucketStream)
			rec.Buckets = append(rec.Buckets, bs)
			rec.Reads.add(bs.Bucket)
		case recSeal:
			if b := r.val.(netmodel.Bucket); b > rec.MaxSeal {
				rec.MaxSeal = b
			}
		case recReport:
			rep := r.val.(Report)
			rep.AfterBuckets = len(rec.Buckets)
			rec.Reports = append(rec.Reports, rep)
			if rep.To > rec.reportTo {
				rec.reportTo = rep.To
			}
		case recAggBatch:
			droppable = true
			rec.Batches = append(rec.Batches, Batch{Cells: r.val.([]ingest.AggCell), AfterBuckets: len(rec.Buckets)})
		}
	}
	return droppable, nil
}

// freshSize is the size of a segment holding nothing but its header and
// meta record.
func (l *Log) freshSize() int64 {
	return int64(segHeader + frameHeader + 1 + len(l.cfg.Meta))
}

// createSegment writes a fresh segment file: header and meta record. The
// file and directory are fsynced before it is trusted.
func (l *Log) createSegment(seq uint64) (*os.File, error) {
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	buf := make([]byte, 0, l.freshSize())
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, segVersion)
	buf = append(beginFrame(buf, recMeta), l.cfg.Meta...)
	sealFrame(buf, segHeader)
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = syncDir(l.dir)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: %w", err)
	}
	return f, nil
}

// syncDir makes the directory's entries — a created or renamed segment —
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// frame starts a record of the given type in the log's reusable frame
// buffer; the Append methods encode the body straight onto it and hand the
// result to write. Caller holds mu.
func (l *Log) frame(typ byte) []byte { return beginFrame(l.buf[:0], typ) }

// write completes the frame begun by frame and writes it as one write(2)
// under the configured fsync policy, rotating the active segment first
// when it would overflow. Caller holds mu.
func (l *Log) write(frame []byte) error {
	l.buf = frame[:0]
	if l.closed {
		return errors.New("wal: log closed")
	}
	if n := len(frame) - frameHeader; n > maxRecordBytes {
		return fmt.Errorf("wal: record %d bytes exceeds limit %d", n, maxRecordBytes)
	}
	sealFrame(frame, 0)
	if l.size+int64(len(frame)) > l.cfg.SegmentBytes && l.size > l.freshSize() {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size += int64(len(frame))
	l.stats.AppendedRecords++
	l.stats.AppendedBytes += int64(len(frame))
	if l.cfg.Fsync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.stats.Syncs++
	} else {
		l.stats.LagRecords++
	}
	return nil
}

// rotateLocked seals the active segment — fsynced under every policy, so
// whatever is in a sealed segment is durable — and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Syncs++
	l.stats.LagRecords = 0
	l.f.Close()
	next := segment{seq: l.active.seq + 1, reads: l.ev.reads.Len()}
	f, err := l.createSegment(next.seq)
	if err != nil {
		return err
	}
	l.dirty = append(l.dirty, l.active)
	l.f, l.size, l.active = f, l.freshSize(), next
	l.stats.Segments++
	return nil
}

// AppendBatch journals one accepted ingest batch in queue push order.
func (l *Log) AppendBatch(obs []trace.Observation) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.write(appendObs(l.frame(recBatch), obs))
}

// AppendBucket journals the exact stream served to the pipeline for one
// consumed bucket. Empty streams are journaled too: replay must re-seal
// empty buckets in the same places.
func (l *Log) AppendBucket(b netmodel.Bucket, obs []trace.Observation) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.write(appendObs(binary.AppendVarint(l.frame(recBucket), int64(b)), obs))
	if err == nil {
		l.ev.reads.add(b)
	}
	return err
}

// AppendSeal journals one explicit watermark advance.
func (l *Log) AppendSeal(b netmodel.Bucket) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.write(binary.AppendVarint(l.frame(recSeal), int64(b)))
	if err == nil && b > l.ev.maxSeal {
		l.ev.maxSeal = b
	}
	return err
}

// AppendReport journals one published report's canonical JSON.
func (l *Log) AppendReport(rep Report) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := binary.AppendVarint(l.frame(recReport), rep.Seq)
	buf = binary.AppendVarint(buf, int64(rep.From))
	buf = binary.AppendVarint(buf, int64(rep.To))
	final := int64(0)
	if rep.Final {
		final = 1
	}
	buf = binary.AppendVarint(buf, final)
	err := l.write(append(buf, rep.Canonical...))
	if err == nil && rep.To > l.ev.reportTo {
		l.ev.reportTo = rep.To
	}
	return err
}

// AppendAggBatch journals one accepted aggregate cell batch in queue push
// order.
func (l *Log) AppendAggBatch(cells []ingest.AggCell) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.write(appendCells(l.frame(recAggBatch), cells))
}

// Sync forces everything appended so far to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Syncs++
	l.stats.LagRecords = 0
	return nil
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close syncs and closes the active segment and stops the flusher.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if l.f != nil {
		l.f.Close()
	}
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	return err
}

// Abandon closes the file handles without syncing — the crash-simulation
// path for tests: whatever the OS has is whatever a kill -9 would leave.
func (l *Log) Abandon() {
	l.mu.Lock()
	l.closed = true
	if l.f != nil {
		l.f.Close()
	}
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
}

func (l *Log) flusher() {
	defer close(l.syncDone)
	t := time.NewTicker(l.cfg.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.syncBehind()
		}
	}
}

// syncBehind is the interval flusher's sync: it fsyncs the active segment
// without holding mu, so that an fsync — several milliseconds of disk time
// for an interval's worth of records — never stalls an append. Records
// appended while it runs wait for the next tick.
func (l *Log) syncBehind() {
	l.mu.Lock()
	f, lag := l.f, l.stats.LagRecords
	l.mu.Unlock()
	if lag == 0 || f.Sync() != nil {
		// Nothing to do, or the segment was sealed or closed under the
		// fsync: sealing and closing sync it themselves, and a failing disk
		// surfaces on the next append.
		return
	}
	l.mu.Lock()
	if l.f == f {
		l.stats.Syncs++
		l.stats.LagRecords -= lag
	}
	l.mu.Unlock()
}
