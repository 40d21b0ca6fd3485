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
// The log is two families of segments. The history (wal-*.log) holds the
// consumed buckets, seals and reports, and is never rewritten. The
// accepted family (accepted-*.log) holds the batches, each stamped with
// the number of bucket reads journaled before it; compaction (Compact)
// unlinks its sealed segments once the history has made them redundant.
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
// body on open, truncates each family at its last valid record, deletes
// the family's later segments, and reports the discarded byte count so
// the daemon can surface it in /healthz.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
	// SegmentBytes rotates a family's active segment once it would exceed
	// this.
	SegmentBytes int64
	// Meta is the daemon's configuration fingerprint. It is journaled as
	// the first record of every segment and must match on reopen: a WAL
	// replayed under different pipeline flags would diverge silently, so
	// a mismatch refuses to open instead.
	Meta string
	// Restore, when set, is offered the newest checkpoint the recovered
	// history reaches, with the history scanned so far (Buckets holds the
	// reads after the checkpoint, Reports every report). When it returns
	// nil recovery goes on from the checkpoint; an error rejects the
	// checkpoint and Open starts again without it. Without Restore,
	// checkpoints are ignored and every read is decoded.
	Restore func(Checkpoint, *Recovery) error
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
	LagRecords int64
	// Segments counts the segment files of both families.
	Segments    int
	Compactions int64
	// LastCompact is the most recent compaction pass.
	LastCompact CompactPass
	// LastCheckpoint is the checkpoint most recently written, or the one
	// recovery restored (Bucket -1 for none).
	LastCheckpoint CheckpointPass
}

// CompactPass is what one compaction pass judged by and what it unlinked.
type CompactPass struct {
	// Reads is how many bucket reads the history held, and ReportTo the
	// highest window end among its reports (-1 for none).
	Reads    int
	ReportTo netmodel.Bucket
	// Segments and Bytes are the accepted segments the pass unlinked.
	Segments int
	Bytes    int64
	Duration time.Duration
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
	// report in the history, a checkpoint's included. It is derived at
	// scan time, not encoded:
	// recovery uses it to run a final report's drain flush again after the
	// same replayed read.
	AfterBuckets int
}

// Batch is one accepted ingest batch in push order: raw observations
// (POST /v1/ingest) or aggregate cells (POST /v1/aggregates), never both.
type Batch struct {
	Obs   []trace.Observation
	Cells []ingest.AggCell
	// AfterBuckets is the position the batch was journaled at: how many
	// bucket reads the history held when it arrived. It is the position
	// Recovery.Reads judges the batch's records from (served or discarded
	// by a later read, or still queued).
	AfterBuckets int
}

// Recovery is everything a scan of the directory reconstructs.
type Recovery struct {
	// Checkpoint is the position of the checkpoint recovery continues
	// from, or nil.
	Checkpoint *Checkpoint
	// Rejected says why each checkpoint recovery passed over was not
	// used; each was unlinked.
	Rejected []error
	// Buckets are the consumed per-bucket streams after the checkpoint (all
	// of them without one), in consumption order.
	Buckets []BucketStream
	// Batches are the journaled batches the reads have not settled, in
	// push order. Recovery re-pushes what the consumed streams did not
	// already settle.
	Batches []Batch
	// Settled counts the journaled batches the reads had settled whole:
	// checked like the rest, but not decoded.
	Settled int
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

	// reportTo is the highest window end among journaled reports, or -1.
	reportTo netmodel.Bucket
	// reads counts the history's bucket records, checked or decoded, and
	// cutBucket is the bucket of the last one only checked.
	reads     int
	cutBucket netmodel.Bucket
}

// evidence is the journaled history compaction judges by. The log keeps
// it current as it appends; a compaction pass copies it and fsyncs the
// history before acting on it.
type evidence struct {
	reads    Horizon
	reportTo netmodel.Bucket
}

// batchSeg is an accepted-family segment as compaction sees it: every
// batch in it is settled once the reads after its last batch's position
// reached its highest bucket.
type batchSeg struct {
	seq   uint64
	size  int64
	after int             // the position of its last batch
	high  netmodel.Bucket // the highest bucket among its batches
}

// droppable reports whether the evidence has settled every batch in the
// segment and a report covers them all.
func (s batchSeg) droppable(ev evidence) bool {
	return ev.reads.Reached(s.after, s.high) && s.high <= ev.reportTo
}

// family is one series of segment files, appended to at its last.
type family struct {
	prefix string // file names are prefix-%010d.log
	kinds  string // the record types its segments may hold
	f      *os.File
	seq    uint64 // the active segment's
	size   int64  // the active segment's
	lag    int64  // records appended since the last fsync
}

func (fam *family) segName(seq uint64) string { return fmt.Sprintf("%s-%010d.log", fam.prefix, seq) }

// segSeqs lists the family's segment numbers among entries, in order.
func (fam *family) segSeqs(entries []os.DirEntry) []uint64 {
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, fam.prefix+"-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		if seq, err := strconv.ParseUint(name[len(fam.prefix)+1:len(name)-len(".log")], 10, 64); err == nil {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// Log is the append side. All methods are safe for concurrent use.
type Log struct {
	dir string
	cfg Config

	// compactMu serializes compaction passes. It is taken before mu and
	// held for the whole pass; mu is held only while the pass seals the
	// accepted family and books its result.
	compactMu sync.Mutex

	mu     sync.Mutex
	hist   family
	acc    family
	stats  Stats
	closed bool
	ev     evidence
	// sealed lists, oldest first, the accepted family's sealed segments:
	// the ones compaction may unlink. cur is the active one.
	sealed []batchSeg
	cur    batchSeg

	buf []byte // frame buffer, reused under mu

	// ckpts lists the checkpoint files' numbers, oldest first.
	ckpts []int

	stop     chan struct{} // interval flusher shutdown
	syncDone chan struct{}

	// compactStep, when set (tests), is called between compaction phases,
	// with mu not held, so crash points inside the compaction protocol can
	// be exercised deterministically. Returning false abandons the
	// compaction at that point, files as they are, as a kill would.
	compactStep func(phase string) bool
}

// Open scans dir (created if missing), recovers its contents, truncates
// any corrupt tail, and returns the log opened for append plus the
// recovery state. The returned Recovery is never nil. A directory written
// in another format version is refused, not converted.
//
// With cfg.Restore set, recovery starts from the newest checkpoint that
// decodes, that the recovered history reaches, and that Restore accepts:
// the bucket records before it are checked, not decoded. Each checkpoint
// failing one of those is rejected — unlinked, and named in
// Recovery.Rejected — and the next older one tried, down to none.
func Open(dir string, cfg Config) (*Log, *Recovery, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var rejected []error
	var truncated int64
	for {
		l, rec, err := open(dir, cfg)
		if rec != nil {
			// A retry finds no corrupt tail the first pass truncated, and
			// not the checkpoints it rejected: both carry over.
			truncated += rec.TruncatedBytes
			rejected = append(rejected, rec.Rejected...)
		}
		if err != errRetry {
			if rec != nil {
				rec.TruncatedBytes, rec.Rejected = truncated, rejected
			}
			return l, rec, err
		}
	}
}

// errRetry is open's word that it rejected a checkpoint after scanning
// the history without decoding the reads before it: Open scans again.
var errRetry = errors.New("wal: retry without the rejected checkpoint")

// open is one attempt of Open.
func open(dir string, cfg Config) (*Log, *Recovery, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec := &Recovery{MaxSeal: -1, reportTo: -1}
	l := &Log{
		dir:   dir,
		cfg:   cfg,
		hist:  family{prefix: "wal", kinds: historyKinds},
		acc:   family{prefix: "accepted", kinds: acceptedKinds},
		ckpts: ckptSeqs(entries),
	}
	l.stats.LastCheckpoint.Bucket = -1
	var ck *Checkpoint
	ckChanged := false
	if cfg.Restore != nil {
		if ck, ckChanged, err = l.pickCheckpoint(rec); err != nil {
			return nil, nil, err
		}
	}
	checked := 0
	if ck != nil {
		checked = ck.Reads
	}
	// The history first: its reads are what the batches are judged by, and
	// a batch they settled is checked but never decoded.
	changed, err := l.openFamily(&l.hist, l.hist.segSeqs(entries), rec, func() decodeRule {
		return decodeRule{checked: checked - rec.reads}
	}, func(_ batchSeg, recs []rawRecord) error {
		return interpret(rec, recs, cfg.Meta)
	})
	if err == nil && ck != nil {
		why := rec.reaches(ck)
		if why == nil {
			why = cfg.Restore(*ck, rec)
		}
		if why != nil {
			l.closeFiles()
			if err := l.rejectCheckpoint(ckptName(ck.Reads), why, rec); err != nil {
				return nil, nil, err
			}
			syncDir(dir)
			return nil, rec, errRetry
		}
		ck.Body = nil
		rec.Checkpoint = ck
		l.stats.LastCheckpoint.Bucket = ck.Bucket
	}
	lastAfter := 0 // the position of the family's last batch
	if err == nil {
		var accChanged bool
		accChanged, err = l.openFamily(&l.acc, l.acc.segSeqs(entries), rec, func() decodeRule {
			return decodeRule{settled: rec.Reads.Reached}
		}, func(seg batchSeg, recs []rawRecord) error {
			for _, r := range recs {
				if r.typ == recBatch || r.typ == recAggBatch {
					seg.after, seg.high = r.after, max(seg.high, r.high)
					lastAfter = r.after
				}
			}
			l.sealed = append(l.sealed, seg)
			return interpret(rec, recs, cfg.Meta)
		})
		changed = changed || accChanged
	}
	// A segment either family started, or discarded, and a checkpoint
	// rejected count once the directory entry is durable: one directory
	// fsync covers them all.
	if err == nil && (changed || ckChanged) {
		if err = syncDir(dir); err != nil {
			err = fmt.Errorf("wal: %w", err)
		}
	}
	if err != nil {
		l.closeFiles()
		return nil, nil, err
	}
	// The last accepted segment goes on taking appends; it is not sealed.
	l.cur, l.sealed = l.sealed[len(l.sealed)-1], l.sealed[:len(l.sealed)-1]

	// Batches recorded past the recovered reads arrived after reads a
	// corrupt history tail lost. They are re-queued whole, and every read
	// from here on comes after them: the history says so before it takes
	// another read, so that a later recovery judges them the same way.
	if lastAfter > rec.Reads.Len() {
		err := l.write(&l.hist, binary.AppendUvarint(l.frame(recSkip), uint64(lastAfter)))
		if err == nil {
			err = l.syncLocked(&l.hist)
		}
		if err != nil {
			l.closeFiles()
			return nil, nil, err
		}
		rec.Reads.skipTo(lastAfter)
	}
	l.ev = evidence{reads: rec.Reads, reportTo: rec.reportTo}

	if cfg.Fsync == SyncInterval {
		l.stop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.flusher()
	}
	return l, rec, nil
}

// openFamily scans one family's segments in order, hands fold each one's
// valid records with its number and size, and opens the last for append;
// a family with none starts one, which fold sees empty. The first
// corruption truncates the family: the file is cut back to its last valid
// record and every later segment of the family is removed — replay needs
// a consistent prefix of each family, and anything after a corrupt record
// has no trustworthy order against it. rule gives each segment's scan
// its decodeRule, as the segments before it leave rec. It reports
// whether it created or removed a segment: syncing the directory is the
// caller's.
func (l *Log) openFamily(fam *family, seqs []uint64, rec *Recovery, rule func() decodeRule, fold func(batchSeg, []rawRecord) error) (bool, error) {
	n := 0 // segments kept
	for ; n < len(seqs); n++ {
		path := filepath.Join(l.dir, fam.segName(seqs[n]))
		data, err := os.ReadFile(path)
		if err != nil {
			return false, fmt.Errorf("wal: %w", err)
		}
		if len(data) < segHeader || string(data[:len(segMagic)]) != segMagic {
			break
		}
		if v := binary.LittleEndian.Uint32(data[len(segMagic):]); v != segVersion {
			return false, fmt.Errorf("wal: %s is in format version %d and this build reads only version %d: start from an empty data directory", path, v, segVersion)
		}
		recs, valid := scanRecords(data[segHeader:], fam.kinds, rule())
		if err := fold(batchSeg{seq: seqs[n], size: int64(segHeader) + valid, high: noBucket}, recs); err != nil {
			return false, err
		}
		if tail := int64(len(data)-segHeader) - valid; tail > 0 {
			rec.TruncatedBytes += tail
			if err := os.Truncate(path, int64(segHeader)+valid); err != nil {
				return false, fmt.Errorf("wal: truncating corrupt tail: %w", err)
			}
			n++
			break
		}
	}
	for _, seq := range seqs[n:] {
		path := filepath.Join(l.dir, fam.segName(seq))
		if st, err := os.Stat(path); err == nil {
			rec.TruncatedBytes += st.Size()
		}
		// A discarded segment that stayed would be read as live history by
		// the next open.
		if err := os.Remove(path); err != nil {
			return false, fmt.Errorf("wal: discarding segment after corruption: %w", err)
		}
	}
	removed := len(seqs) > n
	l.stats.Segments += max(n, 1)
	if n == 0 {
		f, err := l.createSegment(fam, 1)
		if err != nil {
			return false, err
		}
		fam.f, fam.seq, fam.size = f, 1, l.freshSize()
		return true, fold(batchSeg{seq: 1, size: fam.size, high: noBucket}, nil)
	}
	fam.seq = seqs[n-1]
	f, err := os.OpenFile(filepath.Join(l.dir, fam.segName(fam.seq)), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	fam.f = f
	st, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	fam.size = st.Size()
	return removed, nil
}

// interpret folds one segment's scanned records into the recovery state.
func interpret(rec *Recovery, recs []rawRecord, wantMeta string) error {
	for _, r := range recs {
		switch r.typ {
		case recMeta:
			if got := r.val.(string); got != wantMeta {
				return fmt.Errorf("%w: log written under %q, reopened under %q", ErrMetaMismatch, got, wantMeta)
			}
		case recBatch, recAggBatch:
			if r.val == nil {
				rec.Settled++
			} else {
				rec.Batches = append(rec.Batches, r.val.(Batch))
			}
		case recBucket:
			bs := r.val.(BucketStream)
			if r.checked {
				rec.cutBucket = bs.Bucket
			} else {
				rec.Buckets = append(rec.Buckets, bs)
			}
			rec.reads++
			rec.Reads.add(bs.Bucket)
		case recSeal:
			if b := r.val.(netmodel.Bucket); b > rec.MaxSeal {
				rec.MaxSeal = b
			}
		case recReport:
			rep := r.val.(Report)
			rep.AfterBuckets = rec.reads
			rec.Reports = append(rec.Reports, rep)
			if rep.To > rec.reportTo {
				rec.reportTo = rep.To
			}
		case recSkip:
			rec.Reads.skipTo(r.val.(int))
		}
	}
	return nil
}

// freshSize is the size of a segment holding nothing but its header and
// meta record.
func (l *Log) freshSize() int64 {
	return int64(segHeader + frameHeader + 1 + len(l.cfg.Meta))
}

// createSegment writes a fresh segment file of the family, header and meta
// record, and fsyncs it. The caller syncs the directory before trusting it.
func (l *Log) createSegment(fam *family, seq uint64) (*os.File, error) {
	path := filepath.Join(l.dir, fam.segName(seq))
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
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: %w", err)
	}
	return f, nil
}

// syncDir makes the directory's entries — a created or unlinked segment —
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

// write completes the frame begun by frame and writes it to the family
// as one write(2) under the configured fsync policy, rotating the
// family's active segment first when it would overflow. Caller holds mu.
func (l *Log) write(fam *family, frame []byte) error {
	l.buf = frame[:0]
	if l.closed {
		return errors.New("wal: log closed")
	}
	if n := len(frame) - frameHeader; n > maxRecordBytes {
		return fmt.Errorf("wal: record %d bytes exceeds limit %d", n, maxRecordBytes)
	}
	sealFrame(frame, 0)
	if fam.size+int64(len(frame)) > l.cfg.SegmentBytes && fam.size > l.freshSize() {
		if err := l.rotateLocked(fam); err != nil {
			return err
		}
	}
	if _, err := fam.f.Write(frame); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	fam.size += int64(len(frame))
	l.stats.AppendedRecords++
	l.stats.AppendedBytes += int64(len(frame))
	if l.cfg.Fsync == SyncAlways {
		if err := fam.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.stats.Syncs++
	} else {
		fam.lag++
	}
	return nil
}

// rotateLocked seals the family's active segment — fsynced under every
// policy, so whatever is in a sealed segment is durable — and starts the
// next one.
func (l *Log) rotateLocked(fam *family) error {
	if err := fam.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Syncs++
	fam.lag = 0
	fam.f.Close()
	f, err := l.createSegment(fam, fam.seq+1)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("wal: %w", err)
	}
	if fam == &l.acc {
		l.cur.size = fam.size
		l.sealed = append(l.sealed, l.cur)
		l.cur = batchSeg{seq: fam.seq + 1, high: noBucket}
	}
	fam.f, fam.seq, fam.size = f, fam.seq+1, l.freshSize()
	l.stats.Segments++
	return nil
}

// writeBatch journals one batch frame to the accepted family and books its
// position and highest bucket for compaction. Caller holds mu.
func (l *Log) writeBatch(frame []byte, high netmodel.Bucket) error {
	err := l.write(&l.acc, frame)
	if err == nil {
		l.cur.after, l.cur.high = l.ev.reads.Len(), max(l.cur.high, high)
	}
	return err
}

// batchFrame starts a batch record of either feed: its type, then the
// position it is journaled at. Caller holds mu.
func (l *Log) batchFrame(typ byte) []byte {
	return binary.AppendUvarint(l.frame(typ), uint64(l.ev.reads.Len()))
}

// AppendBatch journals one accepted ingest batch in queue push order.
func (l *Log) AppendBatch(obs []trace.Observation) error {
	high := noBucket
	for i := range obs {
		high = max(high, obs[i].Bucket)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeBatch(appendObs(l.batchFrame(recBatch), obs), high)
}

// AppendAggBatch journals one accepted aggregate cell batch in queue push
// order.
func (l *Log) AppendAggBatch(cells []ingest.AggCell) error {
	high := noBucket
	for i := range cells {
		high = max(high, cells[i].Bucket)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeBatch(appendCells(l.batchFrame(recAggBatch), cells), high)
}

// AppendBucket journals the exact stream served to the pipeline for one
// consumed bucket. Empty streams are journaled too: replay must re-seal
// empty buckets in the same places.
func (l *Log) AppendBucket(b netmodel.Bucket, obs []trace.Observation) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.write(&l.hist, appendObs(binary.AppendVarint(l.frame(recBucket), int64(b)), obs))
	if err == nil {
		l.ev.reads.add(b)
	}
	return err
}

// AppendSeal journals one explicit watermark advance.
func (l *Log) AppendSeal(b netmodel.Bucket) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.write(&l.hist, binary.AppendVarint(l.frame(recSeal), int64(b)))
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
	err := l.write(&l.hist, append(buf, rep.Canonical...))
	if err == nil && rep.To > l.ev.reportTo {
		l.ev.reportTo = rep.To
	}
	return err
}

// Sync forces everything appended so far to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.syncLocked(&l.hist); err != nil {
		return err
	}
	return l.syncLocked(&l.acc)
}

// syncLocked fsyncs the family's active segment if anything appended to
// it is not yet on disk. Caller holds mu.
func (l *Log) syncLocked(fam *family) error {
	if fam.lag == 0 {
		return nil
	}
	if err := fam.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Syncs++
	fam.lag = 0
	return nil
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.LagRecords = l.hist.lag + l.acc.lag
	return st
}

// Close syncs and closes the active segments and stops the flusher.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked(&l.hist)
	if err2 := l.syncLocked(&l.acc); err == nil {
		err = err2
	}
	l.closeFiles()
	l.mu.Unlock()
	l.stopFlusher()
	return err
}

// Abandon closes the file handles without syncing — the crash-simulation
// path for tests: whatever the OS has is whatever a kill -9 would leave.
func (l *Log) Abandon() {
	l.mu.Lock()
	l.closeFiles()
	l.mu.Unlock()
	l.stopFlusher()
}

// closeFiles marks the log closed and closes the active segments it has
// open. Caller holds mu, or has the log to itself.
func (l *Log) closeFiles() {
	l.closed = true
	for _, fam := range []*family{&l.hist, &l.acc} {
		if fam.f != nil {
			fam.f.Close()
		}
	}
}

func (l *Log) stopFlusher() {
	if l.stop != nil {
		close(l.stop)
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

// syncBehind is the interval flusher's sync: it fsyncs each family's
// active segment without holding mu, so that an fsync — several
// milliseconds of disk time for an interval's worth of records — never
// stalls an append. Records appended while it runs wait for the next tick.
func (l *Log) syncBehind() {
	for _, fam := range []*family{&l.hist, &l.acc} {
		l.mu.Lock()
		f, lag := fam.f, fam.lag
		l.mu.Unlock()
		if lag == 0 || f.Sync() != nil {
			// Nothing to do, or the segment was sealed or closed under the
			// fsync: sealing and closing sync it themselves, and a failing
			// disk surfaces on the next append.
			continue
		}
		l.mu.Lock()
		if fam.f == f {
			l.stats.Syncs++
			fam.lag -= lag
		}
		l.mu.Unlock()
	}
}
