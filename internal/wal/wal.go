// Package wal is blameitd's durability layer: a checksummed,
// length-prefixed, append-only write-ahead log over rotating segment
// files. The daemon journals the ingest queue's externally visible events
// in queue order — accepted batches of either feed (raw observations,
// aggregate cells), explicit seals, and each bucket read with the count it
// served — plus every published report. The pipeline's state is a
// deterministic function of the streams it read, and the queue's of the
// batches, seals and reads before it, so pushing the journal back through
// the same queue, each read re-deriving its stream, and stepping the
// unchanged WarmupContext/StepContext path reconstructs the backend
// exactly: a restart (kill -9 mid-window included) serves /v1/reports
// byte-identical to an uninterrupted run.
//
// The log is two families of segments. The journal (wal-*.log) holds the
// batches, seals and reads, and is never rewritten; each of its segments
// opens with a base record, the reads and reports journaled before it. The
// reports (reports-*.log) hold the published reports, each with the number
// of reads before it. A checkpoint (checkpoint.go) cuts the journal: the
// segment it starts, its seam, has the checkpoint's position as its base,
// and recovery from the checkpoint reads the journal from there on.
// Compaction (Compact) unlinks what no kept checkpoint needs.
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
	// Restore, when set, is offered the newest checkpoint whose seam — the
	// journal segment it started — opens at its position, with the journal
	// scanned from the seam on (Journal holds the records after the
	// checkpoint, Reports the reports family).
	// When it returns nil recovery goes on from the checkpoint; an error
	// rejects the checkpoint and Open tries the next older one. Without
	// Restore, checkpoints are ignored and the journal is read from zero.
	Restore func(Checkpoint, *Recovery) error
	// Await, when set, is called before each Restore, once the directory
	// and the journal are read: it waits for what Restore needs besides
	// them (the daemon's world, built meanwhile). Its error fails Open
	// and rejects no checkpoint.
	Await func() error
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

// CompactPass is what one compaction pass unlinked, of both families.
type CompactPass struct {
	Segments int
	Bytes    int64
	Duration time.Duration
}

// Report is one journaled published report.
type Report struct {
	Seq       int64
	From, To  netmodel.Bucket
	Final     bool
	Canonical []byte
	// Index is the report's place in the reports family, from 0, and
	// AfterBuckets how many reads the journal held when it was journaled.
	// AppendReport sets both from the log's position. Recovery uses
	// AfterBuckets to run a final report's drain flush again after the same
	// replayed read.
	Index        int
	AfterBuckets int
}

// Kind is what a journal record is.
type Kind uint8

const (
	// KindBatch is one accepted ingest batch: raw observations (POST
	// /v1/ingest) or aggregate cells (POST /v1/aggregates), never both.
	KindBatch Kind = iota + 1
	// KindSeal is one explicit watermark advance through Bucket.
	KindSeal
	// KindRead is one bucket read: Bucket, and Served, how many
	// observations the queue served for it.
	KindRead
)

// Record is one journal record, in queue order.
type Record struct {
	Kind   Kind
	Obs    []trace.Observation
	Cells  []ingest.AggCell
	Bucket netmodel.Bucket
	Served int
}

// position is the journal folded to one point of the log: what a journal
// segment's base record restates and where a checkpoint is cut.
type position struct {
	reads   int             // read records
	last    netmodel.Bucket // the last read's bucket, or -1
	reports int             // report records
}

// origin is the position of an empty log.
var origin = position{last: -1}

// Recovery is everything a scan of the directory reconstructs.
type Recovery struct {
	// Checkpoint is the position of the checkpoint recovery continues
	// from, or nil.
	Checkpoint *Checkpoint
	// Rejected says why each checkpoint recovery passed over was not
	// used; each was unlinked.
	Rejected []error
	// Journal is the journal after the checkpoint (all of it without one),
	// in queue order.
	Journal []Record
	// Reports are the reports the reports family holds, in Index order,
	// and NextReport the Index the next one journaled takes.
	Reports    []Report
	NextReport int
	// TruncatedBytes is how much corrupt tail the open discarded.
	TruncatedBytes int64
	// JournalSegments and JournalBytes are what the open read of the
	// journal: its segments from the seam on.
	JournalSegments int
	JournalBytes    int64

	// at is the journal folded so far; its reports are the count the
	// latest base read restates.
	at position
}

// Report returns the journaled report of the given index, or nil when the
// reports family no longer holds it.
func (rec *Recovery) Report(index int) *Report {
	if len(rec.Reports) == 0 {
		return nil
	}
	i := index - rec.Reports[0].Index
	if i < 0 || i >= len(rec.Reports) {
		return nil
	}
	return &rec.Reports[i]
}

// continues reports whether a journal segment opening at p follows the
// journal folded so far: the reads restated exactly, and no report taken
// back.
func (rec *Recovery) continues(p position) bool {
	return p.reads == rec.at.reads && p.last == rec.at.last && p.reports >= rec.at.reports
}

// segment is one segment file as the log books it: its number and size,
// and in the reports family next, the index after its last report.
type segment struct {
	seq  uint64
	size int64
	next int
}

// family is one series of segment files, appended to at its last.
type family struct {
	prefix string // file names are prefix-%010d.log
	kinds  string // the record types its segments may hold
	// preamble is how many records open each of its segments: the meta
	// record, and in the journal the base. A segment whose valid records
	// stop short of them is dropped whole.
	preamble int
	f        *os.File
	seq      uint64 // the active segment's
	size     int64  // the active segment's
	fresh    int64  // the active segment's size with nothing past its preamble
	lag      int64  // records appended since the last fsync
	// sealed lists, oldest first, the segments before the active one, and
	// cur books the active one.
	sealed []segment
	cur    segment
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
	// held for the whole pass; mu is held only while the pass books.
	compactMu sync.Mutex

	mu    sync.Mutex
	jrn   family
	reps  family
	stats Stats
	// pos is the journal folded to the log's end.
	pos    position
	closed bool

	buf []byte // frame buffer, reused under mu

	// ckpts lists the kept checkpoint files, oldest first.
	ckpts []ckptFile

	stop     chan struct{} // interval flusher shutdown
	syncDone chan struct{}

	// testStep, when set (tests), is called between the phases of a
	// compaction pass, with mu not held, so crash points inside it can be
	// exercised deterministically. Returning false abandons the pass at
	// that point, files as they are, as a kill would.
	testStep func(phase string) bool
}

// rejection is why open could not go on from the checkpoint it was given:
// Open tries the next older one.
type rejection struct{ why error }

func (r rejection) Error() string { return r.why.Error() }

// Open scans dir (created if missing), recovers its contents, truncates
// any corrupt tail, and returns the log opened for append plus the
// recovery state. The returned Recovery is never nil. A directory written
// in another format version is refused, not converted.
//
// With cfg.Restore set, recovery starts from the newest checkpoint that
// decodes, whose seam opens at its position, and that Restore accepts:
// the journal before the seam is not read. Each checkpoint failing one of
// those is rejected and the next older one tried, then zero, which needs
// the journal's first segment. The rejected checkpoints are unlinked —
// and named in Recovery.Rejected — once recovery has a start; without
// one, Open fails naming each and unlinks none. An error from cfg.Await
// is no checkpoint's fault: Open fails with it, rejecting none.
func Open(dir string, cfg Config) (*Log, *Recovery, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []int
	if cfg.Restore != nil {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		seqs = ckptSeqs(entries)
	}
	var rejected []error
	var truncated int64
	for i := len(seqs); ; i-- {
		var ck *Checkpoint
		if i > 0 {
			var err error
			if ck, err = readCheckpoint(dir, seqs[i-1]); err != nil {
				rejected = append(rejected, fmt.Errorf("%s: %w", ckptName(seqs[i-1]), err))
				continue
			}
		}
		l, rec, err := open(dir, cfg, ck)
		if rec != nil {
			truncated += rec.TruncatedBytes
		}
		if r := (rejection{}); errors.As(err, &r) {
			if ck == nil {
				return nil, nil, noStart(r.why, rejected)
			}
			rejected = append(rejected, fmt.Errorf("%s: %w", ckptName(ck.Reads), r.why))
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		// A rejected checkpoint left in place could be taken by a later
		// open over a journal that has moved on: one that will not go
		// fails the open.
		for _, seq := range seqs[i:] {
			if err := os.Remove(filepath.Join(dir, ckptName(seq))); err != nil && !errors.Is(err, os.ErrNotExist) {
				l.Abandon()
				return nil, nil, fmt.Errorf("wal: rejected checkpoint: %w", err)
			}
		}
		if i < len(seqs) {
			if err := syncDir(dir); err != nil {
				l.Abandon()
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
		}
		for _, seq := range seqs[:i] {
			l.ckpts = append(l.ckpts, ckptFile{reads: seq})
		}
		if ck != nil {
			l.ckpts[i-1] = ckptFile{reads: ck.Reads, seam: ck.seam, keep: ck.Keep}
		}
		rec.TruncatedBytes, rec.Rejected = truncated, rejected
		return l, rec, nil
	}
}

// noStart is Open's failure when no checkpoint restores a journal that
// does not start at zero: it names why, and each checkpoint rejected.
func noStart(why error, rejected []error) error {
	msg := fmt.Sprintf("wal: %v, and no checkpoint restores it", why)
	if len(rejected) > 0 {
		whys := make([]string, len(rejected))
		for i, r := range rejected {
			whys[i] = r.Error()
		}
		msg += ": rejected " + strings.Join(whys, "; ")
	}
	return errors.New(msg)
}

// open is one attempt of Open, from checkpoint ck or, when nil, from
// zero. It returns a rejection when it cannot start there.
func open(dir string, cfg Config, ck *Checkpoint) (*Log, *Recovery, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec := &Recovery{at: origin}
	l := &Log{
		dir:  dir,
		cfg:  cfg,
		jrn:  family{prefix: "wal", kinds: journalKinds, preamble: 2},
		reps: family{prefix: "reports", kinds: reportKinds, preamble: 1},
		pos:  origin,
	}
	l.stats.LastCheckpoint.Bucket = -1

	// The journal first, from the seam (or the first segment) on: the
	// reports are judged by its reads.
	seqs := l.jrn.segSeqs(entries)
	from := 0
	switch {
	case ck != nil:
		if from = slices.Index(seqs, ck.seam); from < 0 {
			return nil, rec, rejection{fmt.Errorf("its seam, journal segment %d, is gone", ck.seam)}
		}
	case len(seqs) > 0 && seqs[0] != 1:
		// A directory in another format is refused as such, wherever its
		// journal starts.
		path := filepath.Join(dir, l.jrn.segName(seqs[0]))
		if data, err := os.ReadFile(path); err == nil {
			if err := checkVersion(path, data); err != nil {
				return nil, rec, err
			}
		}
		return nil, rec, rejection{fmt.Errorf("the journal starts at segment %d", seqs[0])}
	}
	for _, seq := range seqs[:from] {
		l.jrn.sealed = append(l.jrn.sealed, segment{seq: seq})
	}
	seam := ck != nil
	changed, err := l.openFamily(&l.jrn, seqs[from:], rec, func(s *segment, recs []rawRecord, size int64) (int, error) {
		rec.JournalSegments++
		rec.JournalBytes += size
		if len(recs) < 2 || recs[0].typ != recMeta || recs[1].typ != recBase {
			if seam {
				return 0, rejection{fmt.Errorf("its seam, journal segment %d, opens with no base", s.seq)}
			}
			return 0, nil
		}
		if seam {
			// The seam must open at the checkpoint's position; the fold
			// goes on from there.
			seam = false
			b := recs[1].val.(position)
			if b.reads != ck.Reads || b.last != ck.Bucket || b.reports != ck.Reports {
				return 0, rejection{fmt.Errorf("cut at read %d, bucket %d, report %d; its seam, journal segment %d, opens at read %d, bucket %d, report %d",
					ck.Reads, ck.Bucket, ck.Reports, s.seq, b.reads, b.last, b.reports)}
			}
			rec.at = b
		}
		return interpret(rec, recs, cfg.Meta)
	})
	if err != nil {
		l.closeFiles()
		return nil, rec, err
	}
	l.pos = rec.at

	// The reports, whole.
	repChanged, err := l.openFamily(&l.reps, l.reps.segSeqs(entries), rec, func(s *segment, recs []rawRecord, _ int64) (int, error) {
		n, err := interpret(rec, recs, cfg.Meta)
		if k := len(rec.Reports); k > 0 {
			s.next = rec.Reports[k-1].Index + 1
		}
		return n, err
	})
	changed = changed || repChanged
	if err == nil && len(rec.Reports) > 0 {
		l.pos.reports = l.reps.cur.next
	}
	rec.NextReport = l.pos.reports
	l.reps.cur.next = l.pos.reports

	// Everything above needs nothing but the directory; the restore may
	// need more.
	if err == nil && ck != nil && cfg.Await != nil {
		err = cfg.Await()
	}
	if err == nil && ck != nil {
		if why := cfg.Restore(*ck, rec); why != nil {
			err = rejection{why}
		} else {
			ck.Body = nil
			rec.Checkpoint = ck
			l.stats.LastCheckpoint.Bucket = ck.Bucket
		}
	}
	// A segment either family started, or discarded, counts once the
	// directory entry is durable: one directory fsync covers them all.
	if err == nil && changed {
		if err = syncDir(dir); err != nil {
			err = fmt.Errorf("wal: %w", err)
		}
	}
	if err != nil {
		l.closeFiles()
		return nil, rec, err
	}

	if cfg.Fsync == SyncInterval {
		l.stop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.flusher()
	}
	return l, rec, nil
}

// openFamily scans one family's segments in order, hands fold each one's
// valid records, and opens the last for append; a family with none starts
// one. fold folds the records it takes into rec and books the segment; it
// returns how many it took, fewer cutting the family there, or an error
// that ends the open. The first corruption truncates the family: the file
// is cut back to its last valid record — a segment left without its
// preamble is removed whole — and every later segment of the family is
// removed: replay needs a consistent prefix of each family, and anything
// after a corrupt record has no trustworthy order against it. It reports
// whether it created or removed a segment: syncing the directory is the
// caller's.
func (l *Log) openFamily(fam *family, seqs []uint64, rec *Recovery, fold func(*segment, []rawRecord, int64) (int, error)) (bool, error) {
	n := 0 // segments kept
	next := 0
	for ; n < len(seqs); n++ {
		path := filepath.Join(l.dir, fam.segName(seqs[n]))
		data, err := os.ReadFile(path)
		if err != nil {
			return false, fmt.Errorf("wal: %w", err)
		}
		if err := checkVersion(path, data); err != nil {
			return false, err
		}
		var recs []rawRecord
		var valid int64
		if len(data) >= segHeader && string(data[:len(segMagic)]) == segMagic {
			recs, valid = scanRecords(data[segHeader:], fam.kinds)
		}
		s := segment{seq: seqs[n], next: next}
		keep, err := fold(&s, recs, int64(len(data)))
		if err != nil {
			return false, err
		}
		if keep < len(recs) {
			valid = framedBytes(recs[:keep])
		}
		if keep < fam.preamble {
			break
		}
		s.size = int64(segHeader) + valid
		fam.sealed = append(fam.sealed, s)
		fam.fresh = int64(segHeader) + framedBytes(recs[:fam.preamble])
		next = s.next
		if tail := int64(len(data)-segHeader) - valid; tail > 0 {
			rec.TruncatedBytes += tail
			if err := os.Truncate(path, s.size); err != nil {
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
		// A discarded segment that stayed would be read as live journal by
		// the next open.
		if err := os.Remove(path); err != nil {
			return false, fmt.Errorf("wal: discarding segment after corruption: %w", err)
		}
	}
	removed := len(seqs) > n
	if n == 0 {
		// A family with none kept starts over at segment 1: for the
		// journal that is zero, as only a journal read from zero — never
		// one from a seam — comes here.
		f, size, err := l.createSegment(fam, 1)
		if err != nil {
			return false, err
		}
		fam.sealed = append(fam.sealed, segment{seq: 1, size: size, next: next})
		fam.f, fam.fresh = f, size
		removed = true
	} else {
		f, err := os.OpenFile(filepath.Join(l.dir, fam.segName(fam.sealed[len(fam.sealed)-1].seq)), os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return false, fmt.Errorf("wal: %w", err)
		}
		fam.f = f
	}
	fam.cur, fam.sealed = fam.sealed[len(fam.sealed)-1], fam.sealed[:len(fam.sealed)-1]
	fam.seq, fam.size = fam.cur.seq, fam.cur.size
	l.stats.Segments += len(fam.sealed) + 1
	return removed, nil
}

// checkVersion refuses a segment, by the header that starts its data,
// written in another format version.
func checkVersion(path string, data []byte) error {
	if len(data) < segHeader || string(data[:len(segMagic)]) != segMagic {
		return nil
	}
	if v := binary.LittleEndian.Uint32(data[len(segMagic):]); v != segVersion {
		return fmt.Errorf("wal: %s is in format version %d and this build reads only version %d: start from an empty data directory", path, v, segVersion)
	}
	return nil
}

// framedBytes is how many bytes the records take on disk.
func framedBytes(recs []rawRecord) int64 {
	n := int64(0)
	for i := range recs {
		n += frameHeader + 1 + int64(len(recs[i].body))
	}
	return n
}

// interpret folds one segment's scanned records into the recovery state.
// It returns how many it took: a base record that is not its segment's
// second, or that does not continue the journal folded so far, and a
// report whose index does not follow the one before, are corruption, and
// the family is cut there. So is a report after more reads than the
// journal holds: it followed reads a corrupt journal tail lost, and the
// replay publishes it again after them. The reports are folded after the
// journal.
func interpret(rec *Recovery, recs []rawRecord, wantMeta string) (int, error) {
	for i, r := range recs {
		switch r.typ {
		case recMeta:
			if got := r.val.(string); got != wantMeta {
				return i, fmt.Errorf("%w: log written under %q, reopened under %q", ErrMetaMismatch, got, wantMeta)
			}
		case recBase:
			p := r.val.(position)
			if i != 1 || !rec.continues(p) {
				return i, nil
			}
			rec.at.reports = p.reports
		case recReport:
			rep := r.val.(Report)
			if n := len(rec.Reports); n > 0 && rep.Index != rec.Reports[n-1].Index+1 || rep.AfterBuckets > rec.at.reads {
				return i, nil
			}
			rec.Reports = append(rec.Reports, rep)
		default:
			jr := r.val.(Record)
			if jr.Kind == KindRead {
				rec.at.reads++
				rec.at.last = jr.Bucket
			}
			rec.Journal = append(rec.Journal, jr)
		}
	}
	return len(recs), nil
}

// createSegment writes a fresh segment file of the family — header, meta
// record and, in the journal, the base the log's position makes — and
// fsyncs it. It returns the file and its size. The caller syncs the
// directory before trusting it.
func (l *Log) createSegment(fam *family, seq uint64) (*os.File, int64, error) {
	path := filepath.Join(l.dir, fam.segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	buf := append([]byte(segMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[len(segMagic):], segVersion)
	start := len(buf)
	buf = append(beginFrame(buf, recMeta), l.cfg.Meta...)
	sealFrame(buf, start)
	if fam == &l.jrn {
		start = len(buf)
		buf = appendPosition(beginFrame(buf, recBase), l.pos)
		sealFrame(buf, start)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	return f, int64(len(buf)), nil
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
	if fam.size+int64(len(frame)) > l.cfg.SegmentBytes && fam.size > fam.fresh {
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
// next one, which in the journal opens at the log's position.
func (l *Log) rotateLocked(fam *family) error {
	if err := fam.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Syncs++
	fam.lag = 0
	fam.f.Close()
	f, size, err := l.createSegment(fam, fam.seq+1)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("wal: %w", err)
	}
	fam.cur.size = fam.size
	fam.sealed = append(fam.sealed, fam.cur)
	fam.cur = segment{seq: fam.seq + 1, next: l.pos.reports}
	fam.f, fam.seq, fam.size, fam.fresh = f, fam.seq+1, size, size
	l.stats.Segments++
	return nil
}

// AppendBatch journals one accepted ingest batch in queue order.
func (l *Log) AppendBatch(obs []trace.Observation) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.write(&l.jrn, appendObs(l.frame(recBatch), obs))
}

// AppendAggBatch journals one accepted aggregate cell batch in queue
// order.
func (l *Log) AppendAggBatch(cells []ingest.AggCell) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.write(&l.jrn, appendCells(l.frame(recAggBatch), cells))
}

// AppendBucket journals one bucket read: b, and how many observations the
// queue served for it — obs, which replay re-derives from the batches
// journaled before it. Empty reads are journaled too: replay must step
// empty buckets in the same places.
func (l *Log) AppendBucket(b netmodel.Bucket, obs []trace.Observation) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.write(&l.jrn, binary.AppendUvarint(binary.AppendVarint(l.frame(recRead), int64(b)), uint64(len(obs))))
	if err == nil {
		l.pos.reads++
		l.pos.last = b
	}
	return err
}

// AppendSeal journals one explicit watermark advance.
func (l *Log) AppendSeal(b netmodel.Bucket) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.write(&l.jrn, binary.AppendVarint(l.frame(recSeal), int64(b)))
}

// AppendReport journals one published report's canonical JSON to the
// reports family, at the next index and the journal's read count.
func (l *Log) AppendReport(rep Report) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := binary.AppendUvarint(l.frame(recReport), uint64(l.pos.reports))
	buf = binary.AppendUvarint(buf, uint64(l.pos.reads))
	buf = binary.AppendVarint(buf, rep.Seq)
	buf = binary.AppendVarint(buf, int64(rep.From))
	buf = binary.AppendVarint(buf, int64(rep.To))
	final := int64(0)
	if rep.Final {
		final = 1
	}
	buf = binary.AppendVarint(buf, final)
	if err := l.write(&l.reps, append(buf, rep.Canonical...)); err != nil {
		return err
	}
	l.pos.reports++
	l.reps.cur.next = l.pos.reports
	return nil
}

// families lists the log's families.
func (l *Log) families() [2]*family { return [2]*family{&l.jrn, &l.reps} }

// Sync forces everything appended so far to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for _, fam := range l.families() {
		if err := l.syncLocked(fam); err != nil {
			return err
		}
	}
	return nil
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
	st.LagRecords = l.jrn.lag + l.reps.lag
	return st
}

// Close syncs and closes the active segments and stops the flusher.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	for _, fam := range l.families() {
		if err2 := l.syncLocked(fam); err == nil {
			err = err2
		}
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
	for _, fam := range l.families() {
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
	for _, fam := range l.families() {
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
