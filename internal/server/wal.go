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

// suppressedReport is a journaled report the recovering backend is
// expected to regenerate: publish verifies the regenerated bytes against it
// and grafts the regeneration's Health back onto the restored log entry,
// instead of re-journaling.
type suppressedReport struct {
	seq       int64
	canonical string
}

// walState threads the write-ahead log through the server: it implements
// queueJournal for the ingest queue's hooks, owns the publish-side
// journaling and the compaction cadence, and carries the recovery
// summary /healthz serves.
type walState struct {
	log *wal.Log

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

	mu           sync.Mutex
	suppress     map[walWindow]suppressedReport
	sinceCompact int
	compactEvery int // <= 0 disables

	// compacting is held by the compaction pass in flight, if any. A pass
	// runs on a goroutine of its own, so that neither the backend's next
	// step nor the frontend's appends wait for it; a cadence that comes due
	// while one is still running is skipped (the next pass covers the
	// same segments). stopCompacting takes the slot for good.
	compacting chan struct{}
	stopOnce   sync.Once

	// Recovery summary, fixed once New returns.
	recoveredBuckets int
	recoveredBatches int
	recoveredReports int
	truncatedBytes   int64
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

// consumeReplayed checks a just-published report against the journaled
// reports the recovering backend is regenerating. It returns the restored
// log entry's seq and true when the report was such a regeneration —
// already journaled, already restored into the report log.
func (ws *walState) consumeReplayed(rep *pipeline.Report, canonical []byte) (int64, bool) {
	win := walWindow{rep.From, rep.To}
	ws.mu.Lock()
	sup, ok := ws.suppress[win]
	if ok {
		delete(ws.suppress, win)
	}
	ws.mu.Unlock()
	if !ok {
		return 0, false
	}
	if sup.canonical != string(canonical) {
		ws.inconsistent.Add(1)
		slog.Error("recovery.report_mismatch", "from", rep.From, "to", rep.To)
	}
	return sup.seq, true
}

// journalReport appends a newly published report and drives the
// compaction cadence: once a window's report is durable, the batches it
// covers are redundant with the consumed-bucket records and compaction
// drops them.
func (ws *walState) journalReport(seq int64, rep *pipeline.Report, canonical []byte) {
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
			ws.absorb(ws.log.Compact())
		}()
	default:
	}
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
	LagRecords           int64 `json:"lag_records"`
	Segments             int   `json:"segments"`
	Compactions          int64 `json:"compactions"`
	// What the latest compaction pass read and wrote: it should track the
	// bytes journaled per cadence, not the size of the directory.
	LastCompactRead    int64 `json:"last_compact_read_bytes"`
	LastCompactWritten int64 `json:"last_compact_written_bytes"`
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
		LagRecords:           st.LagRecords,
		Segments:             st.Segments,
		Compactions:          st.Compactions,
		LastCompactRead:      st.LastCompactReadBytes,
		LastCompactWritten:   st.LastCompactWrittenBytes,
	}
}

// openWAL opens the data directory's log, restores the journaled reports
// into the report log (publish order, original seqs), and primes the
// suppression map the regenerated reports will be verified against and the
// positions of the drain flushes among the recovered reads. It runs before
// the queue is built and the backend goroutine starts.
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
	lg, rec, err := wal.Open(cfg.DataDir, wcfg)
	if err != nil {
		return nil, fmt.Errorf("server: opening WAL in %s: %w", cfg.DataDir, err)
	}
	ws := &walState{
		log:              lg,
		suppress:         make(map[walWindow]suppressedReport),
		flushedAfter:     make(map[netmodel.Bucket]bool),
		compacting:       make(chan struct{}, 1),
		compactEvery:     cfg.CompactEveryReports,
		recoveredBuckets: len(rec.Buckets),
		recoveredBatches: len(rec.Batches),
		recoveredReports: len(rec.Reports),
		truncatedBytes:   rec.TruncatedBytes,
	}
	if ws.compactEvery == 0 {
		ws.compactEvery = DefaultCompactEveryReports
	}
	for _, jr := range rec.Reports {
		rep, err := pipeline.ReportFromCanonical(jr.Canonical)
		if err != nil {
			// The record passed its CRC: undecodable canonical JSON is a
			// bug, not disk corruption. Surface it, keep the rest.
			ws.inconsistent.Add(1)
			slog.Error("recovery.report_undecodable", "seq", jr.Seq, "err", err)
			continue
		}
		rep.Final = jr.Final
		seq := s.reports.add(rep, jr.Canonical)
		ws.suppress[walWindow{jr.From, jr.To}] = suppressedReport{seq: seq, canonical: string(jr.Canonical)}
		if jr.Final && jr.AfterBuckets > 0 {
			// A flush follows the step of the last bucket read before it,
			// and reads only move forward: the bucket names the position.
			ws.flushedAfter[rec.Buckets[jr.AfterBuckets-1].Bucket] = true
		}
	}
	s.wal = ws
	return rec, nil
}

// verifyRegenerated closes the recovery's books once the backend has stepped
// past the journaled reads: every journaled report should have regenerated
// by now, and whatever is still expected marks divergence. A recovery that
// had anything to read says what it read and how long New, entered at
// start, took over it.
func (ws *walState) verifyRegenerated(start time.Time) {
	ws.mu.Lock()
	n := len(ws.suppress)
	ws.mu.Unlock()
	if n > 0 {
		ws.inconsistent.Add(int64(n))
		slog.Error("recovery.unregenerated", "n", n)
	}
	if ws.recoveredBuckets+ws.recoveredBatches+ws.recoveredReports > 0 {
		slog.Info("recovery.complete",
			"buckets", ws.recoveredBuckets, "batches", ws.recoveredBatches, "reports", ws.recoveredReports,
			"truncated_bytes", ws.truncatedBytes, "inconsistent", ws.inconsistent.Load(),
			"duration_ms", time.Since(start).Milliseconds())
	}
}
