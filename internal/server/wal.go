package server

// blameitd's durability glue. When Config.DataDir is set, a wal.Log
// journals the ingest queue's externally visible events (accepted
// batches of either feed, explicit seals, the exact per-bucket streams the
// pipeline consumed) plus every published report's canonical JSON. On the
// next start the queue is built over that journal and the backend's first
// reads are the journaled streams, through the unchanged
// WarmupContext/StepContext path, before New returns: a restart — kill -9
// mid-window included — answers /v1/reports byte-identical to an
// uninterrupted run. See DESIGN.md §14.

import (
	"bytes"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
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
	// (degraded_durability). A restart after that point recovers only
	// what was journaled before the failure.
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

	// compacting is held by the compaction pass in flight, if any. A pass
	// runs on a goroutine of its own, so that neither the backend's next
	// step nor the frontend's appends wait for it; a cadence that comes due
	// while one is still running is skipped (the next pass covers the
	// same segments). stopCompacting takes the slot for good.
	compacting chan struct{}
	stopOnce   sync.Once

	// Recovery summary, fixed once New returns. The phases split New's
	// recovery time: wal.Open, then the backend's catch-up over the
	// journaled reads, which starts at openedAt.
	recoveredBuckets int
	recoveredBatches int
	recoveredReports int
	truncatedBytes   int64
	openTime         time.Duration
	openedAt         time.Time
	recoveryMS       int64
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
		slog.Error("wal.degraded", "err", err)
	}
}

// regenerated checks a just-published report against the journaled
// report of its window, if any, and reports whether the journal already
// holds it. Equal bytes are the rule. Other bytes that decode are a
// divergence: counted and logged, and the log serves the regeneration
// while the journal keeps what it has. Journaled bytes that are not a
// report passed their CRC, so they are a bug, not disk corruption: they
// are counted and logged too, and the regeneration is journaled anew.
func (ws *walState) regenerated(rep *pipeline.Report, canonical []byte) bool {
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
		return false
	case bytes.Equal(jr.Canonical, canonical):
		return true
	}
	ws.inconsistent.Add(1)
	if _, err := pipeline.ReportFromCanonical(jr.Canonical); err != nil {
		slog.Error("recovery.report_undecodable", "seq", jr.Seq, "err", err)
		return false
	}
	slog.Error("recovery.report_mismatch", "from", rep.From, "to", rep.To)
	return true
}

// journalReport appends a newly published report and drives the
// compaction cadence: once a window's report is durable, the batches it
// covers are redundant with the consumed-bucket records and compaction
// unlinks their segments. During recovery, a report the journal already
// holds is not appended again.
func (ws *walState) journalReport(seq int64, rep *pipeline.Report, canonical []byte) {
	if ws.verifying.Load() && ws.regenerated(rep, canonical) {
		return
	}
	if ws.degraded.Load() {
		return
	}
	ws.absorb(ws.log.AppendReport(wal.Report{
		Seq: seq, From: rep.From, To: rep.To, Final: rep.Final, Canonical: canonical,
	}))
	ws.mu.Lock()
	ws.sinceCompact++
	due := ws.compactEvery > 0 && ws.sinceCompact >= ws.compactEvery
	if due {
		ws.sinceCompact = 0
	}
	ws.mu.Unlock()
	if !due || ws.degraded.Load() {
		return
	}
	select {
	case ws.compacting <- struct{}{}:
		go func() {
			defer func() { <-ws.compacting }()
			ws.compact()
		}()
	default:
	}
}

// compact runs one compaction pass and says what it did.
func (ws *walState) compact() {
	if err := ws.log.Compact(); err != nil {
		ws.absorb(err)
		return
	}
	p := ws.log.Stats().LastCompact
	slog.Info("wal.compact", "segments", p.Segments, "bytes", p.Bytes,
		"duration_ms", p.Duration.Milliseconds(), "reads", p.Reads, "report_to", p.ReportTo)
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
	LagRecords int64 `json:"lag_records"`
	// Segments counts the files of both journal families.
	Segments    int   `json:"segments"`
	Compactions int64 `json:"compactions"`
	// What the latest compaction pass unlinked: about the batches
	// journaled per cadence, once the log is past its first passes.
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
		LagRecords:           st.LagRecords,
		Segments:             st.Segments,
		Compactions:          st.Compactions,
		LastCompactUnlinked:  st.LastCompact.Bytes,
	}
}

// openWAL opens the data directory's log, keeps the journaled reports as
// the evidence the regenerated ones will be checked against, and notes
// the positions of the drain flushes among the recovered reads. It runs
// before the queue is built and the backend goroutine starts.
func (s *Server) openWAL(cfg Config) (*wal.Recovery, error) {
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
	opening := time.Now()
	lg, rec, err := wal.Open(cfg.DataDir, wcfg)
	if err != nil {
		return nil, fmt.Errorf("server: opening WAL in %s: %w", cfg.DataDir, err)
	}
	ws := &walState{
		log:              lg,
		reports:          &s.reports,
		journaled:        rec.Reports,
		byWindow:         make(map[walWindow]int, len(rec.Reports)),
		flushedAfter:     make(map[netmodel.Bucket]bool),
		compacting:       make(chan struct{}, 1),
		compactEvery:     cfg.CompactEveryReports,
		recoveredBuckets: len(rec.Buckets),
		recoveredBatches: len(rec.Batches) + rec.Settled,
		recoveredReports: len(rec.Reports),
		truncatedBytes:   rec.TruncatedBytes,
	}
	if ws.compactEvery == 0 {
		ws.compactEvery = DefaultCompactEveryReports
	}
	for i, jr := range rec.Reports {
		ws.byWindow[walWindow{jr.From, jr.To}] = i
		if jr.Final && jr.AfterBuckets > 0 {
			// A flush follows the step of the last bucket read before it,
			// and reads only move forward: the bucket names the position.
			ws.flushedAfter[rec.Buckets[jr.AfterBuckets-1].Bucket] = true
		}
	}
	rec.Reports = nil // the walState's now, released as they match
	ws.verifying.Store(true)
	ws.openedAt = time.Now()
	ws.openTime = ws.openedAt.Sub(opening)
	s.wal = ws
	return rec, nil
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
		ws.reports.add(rep, jr.Canonical)
		unregenerated++
	}
	if unregenerated > 0 {
		slog.Error("recovery.unregenerated", "n", unregenerated)
	}
	ws.recoveryMS = time.Since(start).Milliseconds()
	if ws.recoveredBuckets+ws.recoveredBatches+ws.recoveredReports > 0 {
		slog.Info("recovery.complete",
			"buckets", ws.recoveredBuckets, "batches", ws.recoveredBatches, "reports", ws.recoveredReports,
			"truncated_bytes", ws.truncatedBytes, "inconsistent", ws.inconsistent.Load(),
			"duration_ms", ws.recoveryMS, "open_ms", ws.openTime.Milliseconds(),
			"catchup_ms", caughtUp.Sub(ws.openedAt).Milliseconds())
	}
}
