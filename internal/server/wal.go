package server

// blameitd's durability glue. When Config.DataDir is set, a wal.Log
// journals the ingest queue's externally visible events (accepted
// batches of either feed, explicit seals, each read and the count it
// served) plus every published report's canonical JSON, and once a
// stepped day the backend's folded state and the queue's as a checkpoint.
// On the next start the pipeline, the report log and the queue are
// restored from the newest usable checkpoint, and the journal after it is
// replayed through the queue — each journaled read the backend's next,
// through the unchanged StepContext path — before New returns: a restart
// — kill -9 mid-window included — answers /v1/reports byte-identical to
// an uninterrupted run. See DESIGN.md §14.

import (
	"bytes"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"blameit/internal/ckpt"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/parallel"
	"blameit/internal/pipeline"
	"blameit/internal/trace"
	"blameit/internal/wal"
)

// DefaultCompactEveryReports is how many newly journaled reports trigger
// a WAL compaction when Config.CompactEveryReports is zero.
const DefaultCompactEveryReports = 32

// walWindow keys a journaled report by its job window.
type walWindow struct{ from, to netmodel.Bucket }

// walState threads the write-ahead log through the server: it implements
// queueJournal for the ingest queue's hooks, owns the publish-side
// journaling and the compaction cadence, and carries the recovery
// summary /healthz serves.
type walState struct {
	log     *wal.Log
	reports *reportLog

	// degraded flips on the first append failure: the daemon keeps
	// serving from memory, journals nothing further, and says so loudly
	// in the process log (wal.degraded) and /healthz
	// (degraded_durability). The report log keeps the bytes it still
	// holds from then on; the reports it released before are read back
	// from the disk still, and answer 500 if it no longer reads them. A
	// restart after that point recovers only what was journaled before
	// the failure.
	degraded atomic.Bool

	// inconsistent counts recovery divergences: regenerated reports whose
	// canonical bytes differ from the journaled ones, journaled reports
	// the backend never regenerated, and journaled reports whose canonical
	// JSON failed to decode.
	inconsistent atomic.Int64

	// flushedAfter holds the buckets whose step a journaled drain flush
	// followed. The recovering backend flushes there again: the job has
	// effects past its window (ticket numbers, issue persistence, probe
	// budget) that the next window's report depends on. Fixed at open.
	flushedAfter map[netmodel.Bucket]bool

	// verifying holds from open until verifyRegenerated: only then can a
	// published report be the regeneration of a journaled one. After it,
	// journalReport takes no recovery lock.
	verifying atomic.Bool

	mu sync.Mutex
	// journaled holds the reports the journal held at open, in publish
	// order: the evidence each regeneration is checked against, not
	// entries of the report log. byWindow maps a window to the journaled
	// report its regeneration is still expected to match — the later one,
	// where the journal holds a window twice. A match deletes the window
	// and releases the journaled bytes; verifyRegenerated drops both.
	journaled    []wal.Report
	byWindow     map[walWindow]int
	sinceCompact int
	compactEvery int // <= 0 disables

	// Backend only. reportRecords is the index the next journaled report
	// takes; lastRecord is the index of the one holding the latest
	// published report, or -1 when the journal holds none of it. A
	// checkpoint is cut only where it is the report's seq: then seqs name
	// the journal's reports.
	reportRecords int
	lastRecord    int

	// compacting is held by the compaction pass in flight, if any. A pass
	// runs on a goroutine of its own, so that neither the backend's next
	// step nor the frontend's appends wait for it; a cadence that comes due
	// while one is still running is skipped (the next pass covers the
	// same segments). stopCompacting takes the slot for good.
	compacting chan struct{}
	stopOnce   sync.Once

	// restored is the position of the checkpoint recovery continued from,
	// or nil; the backend steps on from the bucket after it.
	restored *wal.Checkpoint

	// Recovery summary, fixed once New returns. The phases split New's
	// recovery time: wal.Open — readTime of it reading the directory up to
	// the first checkpoint's decode (all of it without one), decodeTime
	// decoding checkpoints, which needs no world and overlaps its build,
	// restoreTime adopting the decoded state once the world is there —
	// then the backend's catch-up over the journal after the checkpoint,
	// which starts at catchupFrom. worldWait is how long recovery waited
	// for the world, in the open or after it. The byte counts are what the
	// open read of the checkpoint, the journal and the reports.
	recoveredBuckets int
	replayedBuckets  int
	recoveredBatches int
	recoveredReports int
	truncatedBytes   int64
	openTime         time.Duration
	readTime         time.Duration
	decodeTime       time.Duration
	worldWait        time.Duration
	restoreTime      time.Duration
	catchupFrom      time.Time
	recoveryMS       int64
	journalSegments  int
	journalBytes     int64
	checkpointBytes  int64
	reportsBytes     int64
}

// The queueJournal hooks. Append errors degrade durability instead of
// failing the data plane: the queue keeps accepting, the WAL goes quiet.

func (ws *walState) journalBatch(obs []trace.Observation) {
	if ws.degraded.Load() {
		return
	}
	ws.absorb(ws.log.AppendBatch(obs))
}

func (ws *walState) journalSeal(through netmodel.Bucket) {
	if ws.degraded.Load() {
		return
	}
	ws.absorb(ws.log.AppendSeal(through))
}

func (ws *walState) journalBucket(b netmodel.Bucket, obs []trace.Observation) {
	if ws.degraded.Load() {
		return
	}
	ws.absorb(ws.log.AppendBucket(b, obs))
}

func (ws *walState) journalAggBatch(cells []ingest.AggCell) {
	if ws.degraded.Load() {
		return
	}
	ws.absorb(ws.log.AppendAggBatch(cells))
}

func (ws *walState) absorb(err error) {
	if err == nil {
		return
	}
	if ws.degraded.CompareAndSwap(false, true) {
		ws.reports.hold()
		slog.Error("wal.degraded", "err", err)
	}
}

// regenerated checks a just-published report against the journaled
// report of its window, if any, and reports whether the journal already
// holds it, and which report record holds its bytes (the zero ref for
// none). Equal bytes are the rule. Other bytes that decode are a
// divergence: counted and logged, and the log serves the regeneration
// while the journal keeps what it has. Journaled bytes that are not a
// report passed their CRC, so they are a bug, not disk corruption: they
// are counted and logged too, and the regeneration is journaled anew.
func (ws *walState) regenerated(rep *pipeline.Report, canonical []byte) (held bool, record wal.ReportRef) {
	win := walWindow{rep.From, rep.To}
	ws.mu.Lock()
	i, ok := ws.byWindow[win]
	var jr wal.Report
	if ok {
		delete(ws.byWindow, win)
		jr = ws.journaled[i]
		ws.journaled[i].Canonical = nil
	}
	ws.mu.Unlock()
	switch {
	case !ok:
		return false, wal.ReportRef{}
	case bytes.Equal(jr.Canonical, canonical):
		return true, jr.Ref
	}
	ws.inconsistent.Add(1)
	if _, err := pipeline.ReportFromCanonical(jr.Canonical); err != nil {
		slog.Error("recovery.report_undecodable", "seq", jr.Seq, "err", err)
		return false, wal.ReportRef{}
	}
	slog.Error("recovery.report_mismatch", "from", rep.From, "to", rep.To)
	return true, wal.ReportRef{}
}

// journalReport appends a newly published report and drives the
// compaction cadence, and returns the record holding its bytes (the zero
// ref for none). During recovery, a report the journal already holds is
// not appended again.
func (ws *walState) journalReport(seq int64, rep *pipeline.Report, canonical []byte) (record wal.ReportRef) {
	ws.lastRecord = -1
	defer func() {
		if record.Segment != 0 {
			ws.lastRecord = record.Index
		}
	}()
	if ws.verifying.Load() {
		if held, ref := ws.regenerated(rep, canonical); held {
			return ref
		}
	}
	if ws.degraded.Load() {
		return wal.ReportRef{}
	}
	record, err := ws.log.AppendReportRef(wal.Report{
		Seq: seq, From: rep.From, To: rep.To, Final: rep.Final, Canonical: canonical,
	})
	ws.absorb(err)
	if err == nil {
		ws.reportRecords++
	}
	ws.mu.Lock()
	ws.sinceCompact++
	due := ws.compactEvery > 0 && ws.sinceCompact >= ws.compactEvery
	if due {
		ws.sinceCompact = 0
	}
	ws.mu.Unlock()
	if !due || ws.degraded.Load() {
		return record
	}
	select {
	case ws.compacting <- struct{}{}:
		go func() {
			defer func() { <-ws.compacting }()
			ws.compact()
		}()
	default:
	}
	return record
}

// readReport reads back the bytes of a retained report whose record ref
// names, checked to be that report's: wal.ReadReport verifies the frame
// and its index, and the record must hold the report's window.
func (ws *walState) readReport(sr storedReport) ([]byte, error) {
	rep, err := ws.log.ReadReport(sr.ref)
	if err == nil && (rep.From != sr.from || rep.To != sr.to) {
		err = fmt.Errorf("report record %d holds window [%d, %d], not [%d, %d]", sr.ref.Index, rep.From, rep.To, sr.from, sr.to)
	}
	return rep.Canonical, err
}

// compact runs one compaction pass and says what it did.
func (ws *walState) compact() {
	if err := ws.log.Compact(); err != nil {
		ws.absorb(err)
		return
	}
	p := ws.log.Stats().LastCompact
	slog.Info("wal.compact", "segments", p.Segments, "bytes", p.Bytes, "duration_ms", p.Duration.Milliseconds())
}

// stopCompacting waits for the compaction pass in flight and lets no
// other start: the log can then be closed.
func (ws *walState) stopCompacting() {
	ws.stopOnce.Do(func() { ws.compacting <- struct{}{} })
}

// WALHealth is /healthz's durability section.
type WALHealth struct {
	Enabled              bool  `json:"enabled"`
	Degraded             bool  `json:"degraded_durability"`
	RecoveredBuckets     int   `json:"recovered_buckets"`
	RecoveredBatches     int   `json:"recovered_batches"`
	RecoveredReports     int   `json:"recovered_reports"`
	TruncatedBytes       int64 `json:"truncated_bytes"`
	RecoveryInconsistent int64 `json:"recovery_inconsistent"`
	// RecoveryMS is how long New took over the journal: open, catch-up and
	// the leftovers' decode (recovery.complete logs the split).
	RecoveryMS int64 `json:"recovery_ms"`
	// CheckpointBucket is the bucket of the newest checkpoint, written or
	// restored, or -1.
	CheckpointBucket int64 `json:"checkpoint_bucket"`
	LagRecords       int64 `json:"lag_records"`
	// Segments counts the files of both journal families.
	Segments    int   `json:"segments"`
	Compactions int64 `json:"compactions"`
	// What the latest compaction pass unlinked: the journal of a day and
	// the reports before it, once a day has passed its second checkpoint.
	LastCompactUnlinked int64 `json:"last_compact_unlinked_bytes"`
}

func (ws *walState) health() *WALHealth {
	st := ws.log.Stats()
	return &WALHealth{
		Enabled:              true,
		Degraded:             ws.degraded.Load(),
		RecoveredBuckets:     ws.recoveredBuckets,
		RecoveredBatches:     ws.recoveredBatches,
		RecoveredReports:     ws.recoveredReports,
		TruncatedBytes:       ws.truncatedBytes,
		RecoveryInconsistent: ws.inconsistent.Load(),
		RecoveryMS:           ws.recoveryMS,
		CheckpointBucket:     int64(st.LastCheckpoint.Bucket),
		LagRecords:           st.LagRecords,
		Segments:             st.Segments,
		Compactions:          st.Compactions,
		LastCompactUnlinked:  st.LastCompact.Bytes,
	}
}

// openWAL opens the data directory's log — restoring the pipeline, the
// report log and the queue from the newest checkpoint recovery can use —
// keeps the journaled reports after the checkpoint as the evidence the
// regenerated ones will be checked against, and notes the positions of
// the drain flushes among the reads to replay. world is New's deps: the
// open waits for it only to adopt a checkpoint, once the journal is read
// and the checkpoint decoded. It runs before the backend goroutine
// starts.
func (s *Server) openWAL(cfg Config, world func() (pipeline.Deps, error)) (*wal.Recovery, error) {
	wcfg := cfg.WAL
	if wcfg.Meta == "" {
		// The fingerprint pins everything replay determinism depends on:
		// a WAL replayed under different pipeline flags would diverge
		// silently, so wal.Open refuses a mismatch instead. The metrics
		// registry (a pointer) and the worker count (output-invariant)
		// are not among them: blanked, a reopen may change either.
		pc := cfg.Pipeline
		pc.Metrics, pc.Workers = nil, 0
		wcfg.Meta = fmt.Sprintf("pipe=%+v|warmup=%d|manual=%v", pc, cfg.WarmupBuckets, cfg.ManualSeal)
	}
	var deps pipeline.Deps
	var readTime, decodeTime, restoreTime time.Duration
	opening := time.Now()
	wcfg.Await = func() (err error) {
		deps, err = world()
		return err
	}
	wcfg.Restore = func(ck wal.Checkpoint, rec *wal.Recovery) (func() error, error) {
		start := time.Now()
		if readTime == 0 {
			readTime = start.Sub(opening)
		}
		st, err := s.decodeCheckpoint(cfg, ck, rec)
		decodeTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		return func() error {
			start := time.Now()
			defer func() { restoreTime = time.Since(start) }()
			return s.adopt(deps, cfg, ck, st)
		}, nil
	}
	lg, rec, err := wal.Open(cfg.DataDir, wcfg)
	if err != nil {
		return nil, fmt.Errorf("server: opening WAL in %s: %w", cfg.DataDir, err)
	}
	openTime := time.Since(opening)
	if readTime == 0 {
		readTime = openTime
	}
	for _, why := range rec.Rejected {
		slog.Error("recovery.checkpoint_rejected", "err", why)
	}
	ws := &walState{
		log:              lg,
		reports:          &s.reports,
		byWindow:         make(map[walWindow]int),
		flushedAfter:     make(map[netmodel.Bucket]bool),
		compacting:       make(chan struct{}, 1),
		compactEvery:     cfg.CompactEveryReports,
		restored:         rec.Checkpoint,
		recoveredReports: len(rec.Reports),
		reportRecords:    rec.NextReport,
		truncatedBytes:   rec.TruncatedBytes,
		openTime:         openTime,
		readTime:         readTime,
		decodeTime:       decodeTime,
		restoreTime:      restoreTime,
		journalSegments:  rec.JournalSegments,
		journalBytes:     rec.JournalBytes,
		checkpointBytes:  rec.CheckpointBytes,
		reportsBytes:     rec.ReportsBytes,
	}
	if ws.compactEvery == 0 {
		ws.compactEvery = DefaultCompactEveryReports
	}
	var read []netmodel.Bucket // the bucket of each journaled read
	for i := range rec.Journal {
		switch r := &rec.Journal[i]; r.Kind {
		case wal.KindRead:
			read = append(read, r.Bucket)
		case wal.KindBatch:
			ws.recoveredBatches++
		}
	}
	ws.recoveredBuckets, ws.replayedBuckets = len(read), len(read)
	reads := 0 // the reads before the journal's
	if ck := rec.Checkpoint; ck != nil {
		reads = ck.Reads
		ws.recoveredBuckets += reads
		// The reports up to the checkpoint are the restored log's own.
		for len(rec.Reports) > 0 && rec.Reports[0].Index < ck.Reports {
			rec.Reports = rec.Reports[1:]
		}
	}
	ws.journaled = rec.Reports
	for i, jr := range rec.Reports {
		ws.byWindow[walWindow{jr.From, jr.To}] = i
		if jr.Final && jr.AfterBuckets > reads {
			// A flush follows the step of the last bucket read before it,
			// and reads only move forward: the bucket names the position.
			ws.flushedAfter[read[jr.AfterBuckets-reads-1]] = true
		}
	}
	rec.Reports = nil // the walState's now, released as they match
	ws.verifying.Store(true)
	s.wal = ws
	return rec, nil
}

// decodeCheckpoint is the first half of wal.Config.Restore: it decodes
// checkpoint ck — what it needs of the world is checked once that is
// built, by adopt — and checks the headers it retains against the
// journaled reports, which must hold each one's window at its seq: the
// restored log reads their bytes from there. A checkpoint retaining fewer
// reports than this daemon would (-retain-reports was raised) is refused:
// replay serves the older ones too. Its error rejects the checkpoint.
func (s *Server) decodeCheckpoint(cfg Config, ck wal.Checkpoint, rec *wal.Recovery) (*decodedState, error) {
	// One core is the world build's, which the decode runs beside.
	st, err := decodeState(ck.Body, max(1, parallel.Resolve(cfg.Pipeline.Workers)-1))
	if err != nil {
		return nil, err
	}
	if want := min(ck.Reports, s.reports.max); len(st.headers) < want {
		return nil, fmt.Errorf("holds %d reports, the log retains %d", len(st.headers), want)
	}
	st.headers = st.headers[len(st.headers)-min(len(st.headers), s.reports.max):]
	for i := range st.headers {
		h := &st.headers[i]
		if h.seq >= int64(ck.Reports) {
			return nil, fmt.Errorf("report %d past the cut", h.seq)
		}
		jr := rec.Report(int(h.seq))
		switch {
		case jr == nil:
			return nil, fmt.Errorf("report %d is no longer journaled", h.seq)
		case jr.From != h.from || jr.To != h.to:
			return nil, fmt.Errorf("report %d is window [%d, %d], the journal's [%d, %d]", h.seq, h.from, h.to, jr.From, jr.To)
		}
		h.ref = jr.Ref
	}
	return st, nil
}

// adopt is the second half of wal.Config.Restore: it builds the pipeline
// over the world, deps, adopts the decoded state into it, and takes it,
// the retained headers and the queue as the server's. It is all or
// nothing — on an error none is touched, and recovery falls back to an
// older checkpoint or to zero.
func (s *Server) adopt(deps pipeline.Deps, cfg Config, ck wal.Checkpoint, st *decodedState) error {
	pipe := pipeline.New(deps, cfg.Pipeline)
	if err := pipe.AdoptCheckpoint(st.pipe); err != nil {
		return err
	}
	s.pipe = pipe
	s.reports.reports, s.reports.nextSeq = st.headers, int64(ck.Reports)
	s.q.adopt(st.queue)
	return nil
}

// checkpointDue reports whether the report of the job ending at bucket b
// cuts a checkpoint: at each day's end. While the backend catches up the
// journal is ahead of it, and a checkpoint is cut only at the journal's
// last read.
func (s *Server) checkpointDue(b netmodel.Bucket) bool {
	if s.wal == nil || (b+1)%netmodel.BucketsPerDay != 0 && (s.cfg.checkpointAt == nil || !s.cfg.checkpointAt(b)) {
		return false
	}
	return !s.q.replaying()
}

// checkpoint cuts the journal after the report latest, whose job has
// just run and which has just been journaled, and writes the backend's
// state and the queue's there into the data directory — unless the log is
// degraded or inconsistent, or does not hold latest as its last report
// record, of index latest.seq: the restored log names the journal's
// reports by seq, and a catch-up can regenerate a report the journal holds
// more after. The cut seals the journal's active segment; its failure
// degrades durability like any append's. A failed write loses nothing —
// the journal holds every record — and is only logged. It reports false
// when Config.killAt stopped the backend.
func (s *Server) checkpoint(latest storedReport) bool {
	ws := s.wal
	if ws.degraded.Load() || ws.inconsistent.Load() > 0 || int64(ws.lastRecord) != latest.seq || ws.lastRecord+1 != ws.reportRecords {
		return true
	}
	headers := s.reports.retainedWith(latest)
	pos := wal.Checkpoint{Reads: s.q.readCount(), Bucket: latest.to, Reports: ws.lastRecord + 1, Keep: ws.lastRecord + 1}
	if len(headers) > 0 {
		pos.Keep = int(headers[0].seq)
	}
	start := time.Now()
	queue, err := s.q.snapshot(func() (err error) {
		pos, err = ws.log.Cut(pos)
		return err
	})
	if err != nil {
		ws.absorb(err)
		return true
	}
	if s.killed("cut") {
		return false
	}
	n, err := ws.log.WriteCheckpoint(pos, func(e *ckpt.Encoder) error {
		return appendState(e, s.pipe, headers, queue)
	})
	if err != nil {
		slog.Error("wal.checkpoint_failed", "bucket", pos.Bucket, "err", err)
		return true
	}
	slog.Info("wal.checkpoint", "bucket", pos.Bucket, "bytes", n, "ms", float64(time.Since(start).Microseconds())/1000)
	return true
}

// verifyRegenerated closes the recovery's books once the backend has
// stepped past the journaled reads. Every journaled report should have
// regenerated by now. The ones that did not are decoded and appended to
// the report log, after the regenerated ones, so the read APIs serve
// them; each counts as a divergence, and one that does not decode is
// counted and takes no seq. A recovery that had anything to read says
// what it read and how long New, entered at start, took over it.
func (ws *walState) verifyRegenerated(start time.Time) {
	caughtUp := time.Now()
	ws.mu.Lock()
	journaled, pending := ws.journaled, ws.byWindow
	ws.journaled, ws.byWindow = nil, nil
	ws.verifying.Store(false)
	ws.mu.Unlock()
	unregenerated := 0
	for i, jr := range journaled {
		if j, ok := pending[walWindow{jr.From, jr.To}]; !ok || j != i {
			continue // regenerated, or superseded by a later report of its window
		}
		ws.inconsistent.Add(1)
		rep, err := pipeline.ReportFromCanonical(jr.Canonical)
		if err != nil {
			slog.Error("recovery.report_undecodable", "seq", jr.Seq, "err", err)
			continue
		}
		sr := stored(ws.reports.count(), rep, jr.Canonical)
		sr.ref = jr.Ref
		ws.reports.add(sr)
		unregenerated++
	}
	if unregenerated > 0 {
		slog.Error("recovery.unregenerated", "n", unregenerated)
	}
	ws.recoveryMS = time.Since(start).Milliseconds()
	if ws.recoveredBuckets+ws.recoveredBatches+ws.recoveredReports > 0 {
		ckBucket := netmodel.Bucket(-1)
		if ws.restored != nil {
			ckBucket = ws.restored.Bucket
		}
		slog.Info("recovery.complete",
			"buckets", ws.recoveredBuckets, "batches", ws.recoveredBatches, "reports", ws.recoveredReports,
			"truncated_bytes", ws.truncatedBytes, "inconsistent", ws.inconsistent.Load(),
			"checkpoint_bucket", ckBucket, "replayed_buckets", ws.replayedBuckets,
			"journal_segments", ws.journalSegments, "journal_bytes", ws.journalBytes,
			"checkpoint_bytes", ws.checkpointBytes, "reports_bytes", ws.reportsBytes,
			"duration_ms", ws.recoveryMS, "open_ms", ws.openTime.Milliseconds(),
			"read_ms", ws.readTime.Milliseconds(), "decode_ms", ws.decodeTime.Milliseconds(),
			"world_wait_ms", ws.worldWait.Milliseconds(), "restore_ms", ws.restoreTime.Milliseconds(),
			"catchup_ms", caughtUp.Sub(ws.catchupFrom).Milliseconds())
	}
}
