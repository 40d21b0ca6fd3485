// Package server is blameitd: the BlameIt pipeline stood up as a
// long-running HTTP service with a frontend/backend split, mirroring the
// production shape of Fig. 7 — collection at the edge, an ingestion tier,
// and a periodic localization job over the sealed buckets.
//
// The frontend accepts JSONL observation batches on POST /v1/ingest
// (decoded by ingest.DecodeBatch's alloc-free canonical scanner) and an
// edge-aggregating fleet's partial cells on POST /v1/aggregates, with
// bounded request bodies and backpressure, into one ingest queue. The
// backend is one worker goroutine that owns the pipeline — which is not
// safe for concurrent use and never needs to be — and steps it bucket by
// bucket as buckets seal in the ingest queue. Because the backend drives
// the very same WarmupContext/StepContext entry points the batch CLI
// drives, and reads through the same ingest.ObservationSource seam, a
// trace replayed over HTTP produces reports byte-identical to an
// in-process run over the simulator that generated it.
//
// Read APIs: GET /v1/verdicts (localizations across retained reports),
// GET /v1/reports and /v1/reports/{bucket} (canonical report JSON),
// GET /healthz (fed by the latest Report.Health), and GET /metrics (the
// pipeline registry's JSON snapshot).
package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blameit/internal/active"
	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/wal"
)

// Config assembles the service tunables around an embedded pipeline
// configuration.
type Config struct {
	// Pipeline configures the backend's localization pipeline.
	Pipeline pipeline.Config
	// WarmupBuckets is how many leading buckets feed expected-RTT learning
	// before the step loop starts (the batch CLI's warmup days). 0 starts
	// localizing immediately with empty thresholds.
	WarmupBuckets netmodel.Bucket
	// MaxBatchBytes bounds one ingest request body; larger bodies get 413.
	// 0 takes DefaultMaxBatchBytes.
	MaxBatchBytes int64
	// MaxPendingRecords bounds the ingest queue; a batch that would exceed
	// it gets 429 until the backend drains. 0 takes
	// DefaultMaxPendingRecords; negative is invalid.
	MaxPendingRecords int
	// MaxReports bounds the retained report log (oldest evicted first).
	// 0 takes DefaultMaxReports; negative is invalid.
	MaxReports int
	// ManualSeal disables the streaming watermark: buckets seal only via
	// POST /v1/seal (or shutdown drain), never implicitly by the arrival
	// of later-bucket records. Use it when concurrent collectors deliver
	// buckets out of order.
	ManualSeal bool
	// DataDir, when set, enables the write-ahead log: ingested buckets
	// and published reports are journaled under it, and the next New
	// over the same directory replays the journal — reconstructing the
	// backend byte-exactly — before serving traffic. Empty disables
	// durability entirely (the seed behavior).
	DataDir string
	// WAL tunes the write-ahead log; used only when DataDir is set. An
	// empty WAL.Meta gets a fingerprint derived from this Config.
	WAL wal.Config
	// CompactEveryReports compacts the WAL after every N newly journaled
	// reports. 0 takes DefaultCompactEveryReports; negative disables
	// compaction.
	CompactEveryReports int

	// checkpointAt, when set (tests), also cuts a checkpoint after the job
	// that ends at each bucket it names, beside the day-end ones.
	checkpointAt func(netmodel.Bucket) bool
	// killAt, when set (tests), stops the backend dead at each checkpoint
	// phase it names — "cut" once the seam is started, "checkpointed" once
	// the file is written, both before the report is served — as a kill
	// -9 there would.
	killAt func(phase string) bool
}

// Defaults for the zero-valued Config fields.
const (
	DefaultMaxBatchBytes     = 32 << 20
	DefaultMaxPendingRecords = 4 << 20
	DefaultMaxReports        = 4096
)

// Validate rejects configurations with no meaningful interpretation.
func (c Config) Validate() error {
	switch {
	case c.WarmupBuckets < 0:
		return fmt.Errorf("server: WarmupBuckets %d must be >= 0", c.WarmupBuckets)
	case c.MaxBatchBytes < 0:
		return fmt.Errorf("server: MaxBatchBytes %d must be >= 0 (0 = default)", c.MaxBatchBytes)
	case c.MaxPendingRecords < 0:
		return fmt.Errorf("server: MaxPendingRecords %d must be >= 0 (0 = default)", c.MaxPendingRecords)
	case c.MaxReports < 0:
		return fmt.Errorf("server: MaxReports %d must be >= 0 (0 = default)", c.MaxReports)
	}
	return c.Pipeline.Validate()
}

// storedReport is one retained report: its canonical bytes, rendered
// once at publish, and the header the read APIs answer from. The full
// Report is not kept.
type storedReport struct {
	seq              int64
	from, to         netmodel.Bucket
	results, tickets int
	verdicts         []active.Verdict
	health           pipeline.Health
	canonical        []byte
}

// stored renders the header of a report published with seq.
func stored(seq int64, rep *pipeline.Report, canonical []byte) storedReport {
	return storedReport{
		seq: seq, from: rep.From, to: rep.To,
		results: len(rep.Results), tickets: len(rep.Tickets),
		verdicts: rep.Verdicts, health: rep.Health, canonical: canonical,
	}
}

// reportLog retains the most recent reports for the read APIs. It only
// appends; the oldest entries are evicted past max. Only the backend
// appends.
type reportLog struct {
	mu      sync.Mutex
	reports []storedReport
	nextSeq int64
	max     int
}

// add appends a report, which takes the next seq.
func (l *reportLog) add(sr storedReport) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reports = append(l.reports, sr)
	l.nextSeq = sr.seq + 1
	if l.max > 0 && len(l.reports) > l.max {
		n := copy(l.reports, l.reports[len(l.reports)-l.max:])
		for i := n; i < len(l.reports); i++ {
			l.reports[i] = storedReport{}
		}
		l.reports = l.reports[:n]
	}
}

// retainedWith returns the entries the log would retain once sr is added,
// oldest first, without adding it. The backend, the log's one writer,
// calls it: the entries it copies cannot change under it.
func (l *reportLog) retainedWith(sr storedReport) []storedReport {
	l.mu.Lock()
	kept := l.reports
	l.mu.Unlock()
	if l.max > 0 && len(kept) >= l.max {
		kept = kept[len(kept)-l.max+1:]
	}
	return append(slices.Clip(kept), sr)
}

// each calls f on every retained report, oldest first, under the log's
// lock: readers take what they serve without copying the log.
func (l *reportLog) each(f func(*storedReport)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.reports {
		f(&l.reports[i])
	}
}

// byBucket returns the retained report whose window covers b.
func (l *reportLog) byBucket(b netmodel.Bucket) (storedReport, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.reports {
		if r := l.reports[i]; r.from <= b && b <= r.to {
			return r, true
		}
	}
	return storedReport{}, false
}

// latest returns the most recent report.
func (l *reportLog) latest() (storedReport, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.reports) == 0 {
		return storedReport{}, false
	}
	return l.reports[len(l.reports)-1], true
}

func (l *reportLog) count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Server is the assembled daemon: an HTTP frontend over the ingest queue
// and one backend worker driving the pipeline. Create it with New, serve
// Handler() on any net/http server (or httptest), and stop it with
// Shutdown.
type Server struct {
	cfg  Config
	pipe *pipeline.Pipeline
	q    *ingestQueue
	reg  *metrics.Registry
	mux  *http.ServeMux

	reports reportLog

	// frontQuar collects records the FRONTEND refuses — undecodable lines
	// of salvage-mode batches — before they ever reach the queue. The
	// backend's quarantine (pipeline.Quarantine) handles late, corrupt,
	// and duplicate records at step time; both report into the same
	// ingest.quarantine.* counters. Guarded by frontMu: handlers run
	// concurrently and Quarantine is single-goroutine.
	frontMu   sync.Mutex
	frontQuar *ingest.Quarantine

	// wal, when non-nil, is the durability layer (Config.DataDir set).
	wal *walState

	mBatches     *metrics.Counter
	mRecords     *metrics.Counter
	mRejected    *metrics.Counter
	mOversized   *metrics.Counter
	mBackpress   *metrics.Counter
	mSeals       *metrics.Counter
	gQueueDepth  *metrics.Gauge
	mReportsPub  *metrics.Counter
	mAggBatches  *metrics.Counter
	mAggCells    *metrics.Counter
	mAggPartials *metrics.Counter
	mAggDeduped  *metrics.Counter
	mAggFlushed  *metrics.Counter
	mAggRejected *metrics.Counter

	bctx     context.Context
	bcancel  context.CancelFunc
	done     chan struct{}
	draining atomic.Bool

	errMu sync.Mutex
	err   error
}

// New assembles a server over the pipeline's external dependencies and
// starts the backend worker. deps.Source must be nil: the server installs
// its ingest queue as the pipeline's observation source — that seam is the
// whole point of the daemon. World, Table, and Prober are required, as for
// pipeline.New.
func New(deps pipeline.Deps, cfg Config) (*Server, error) {
	return NewDeferred(func() (pipeline.Deps, error) { return deps, nil }, cfg)
}

// NewDeferred is New over dependencies still being built: deps is called
// once, on the caller's goroutine, when the server first needs them. With a
// data directory that is after everything opening the journal can do
// without them — the directory scan, the checkpoint's read and CRC, the
// journal from its seam and the reports — so that a world built on
// another goroutine meanwhile overlaps it. An error from deps fails
// NewDeferred and rejects no checkpoint.
func NewDeferred(deps func() (pipeline.Deps, error), cfg Config) (*Server, error) {
	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBatchBytes == 0 {
		cfg.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if cfg.MaxPendingRecords == 0 {
		cfg.MaxPendingRecords = DefaultMaxPendingRecords
	}
	if cfg.MaxReports == 0 {
		cfg.MaxReports = DefaultMaxReports
	}
	s := &Server{cfg: cfg, done: make(chan struct{})}
	s.reports.max = cfg.MaxReports
	s.q = newIngestQueue(cfg.MaxPendingRecords, cfg.ManualSeal)
	var worldWait time.Duration
	world := sync.OnceValues(func() (pipeline.Deps, error) {
		waiting := time.Now()
		d, err := deps()
		worldWait = time.Since(waiting)
		switch {
		case err != nil:
			return d, fmt.Errorf("building the world: %w", err)
		case d.Source != nil:
			return d, fmt.Errorf("deps.Source must be nil; the server feeds the pipeline from its HTTP ingest queue")
		}
		d.Source = s.q
		return d, nil
	})
	// With a data directory, open the WAL — restoring the pipeline, the
	// report log and the queue from its checkpoint, if it has one recovery
	// can use — and hand the queue the journal after it: the journal is
	// live, and replaying it is what the backend's first reads do.
	if cfg.DataDir != "" {
		rec, err := s.openWAL(cfg, world)
		if err != nil {
			return nil, err
		}
		s.q.recover(s.wal, rec)
	}
	d, err := world()
	if err != nil {
		if s.wal != nil {
			s.wal.log.Close()
		}
		return nil, fmt.Errorf("server: %w", err)
	}
	if s.pipe == nil {
		s.pipe = pipeline.New(d, cfg.Pipeline)
	}
	s.reg = s.pipe.Metrics
	s.frontQuar = ingest.NewQuarantine(netmodel.PrefixID(len(d.World.Prefixes)), len(d.World.Clouds))
	s.frontQuar.SetMetrics(s.reg)
	s.mBatches = s.reg.Counter("server.ingest.batches")
	s.mRecords = s.reg.Counter("server.ingest.records")
	s.mRejected = s.reg.Counter("server.ingest.rejected_batches")
	s.mOversized = s.reg.Counter("server.ingest.oversized")
	s.mBackpress = s.reg.Counter("server.ingest.backpressure")
	s.mSeals = s.reg.Counter("server.seal.requests")
	s.gQueueDepth = s.reg.Gauge("server.ingest.queue_depth")
	s.mReportsPub = s.reg.Counter("server.reports.published")
	s.mAggBatches = s.reg.Counter("server.aggregates.batches")
	s.mAggCells = s.reg.Counter("server.aggregates.cells")
	s.mAggPartials = s.reg.Counter("server.aggregates.partials")
	s.mAggDeduped = s.reg.Counter("server.aggregates.deduped")
	// Cells admitted to the queue, net of deduplicated redeliveries.
	s.mAggFlushed = s.reg.Counter("server.aggregates.flushed_records")
	s.mAggRejected = s.reg.Counter("server.aggregates.rejected_batches")
	s.mux = http.NewServeMux()
	s.routes()
	s.bctx, s.bcancel = context.WithCancel(context.Background())
	if s.wal != nil {
		s.wal.worldWait = worldWait
		s.wal.catchupFrom = time.Now()
	}
	go s.run()
	// Wait until the backend asks for its first bucket past the journaled
	// ones (at once, without a journal): callers get a server whose state
	// is already byte-equivalent to the pre-crash one.
	select {
	case <-s.q.caughtUp:
	case <-s.done:
	}
	if err := s.Err(); err != nil {
		s.q.Close()
		s.bcancel()
		<-s.done
		if s.wal != nil {
			s.wal.stopCompacting()
			s.wal.log.Close()
		}
		return nil, fmt.Errorf("server: recovery: %w", err)
	}
	if s.wal != nil {
		s.wal.verifyRegenerated(start)
	}
	return s, nil
}

// Handler returns the frontend's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pipeline exposes the backend pipeline for inspection (tests, the CLI's
// exit summary). The backend goroutine owns its mutable state; read it
// only after Shutdown has returned.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pipe }

// Reports returns how many reports the backend has published.
func (s *Server) Reports() int64 { return s.reports.count() }

// WALHealth returns the durability summary /healthz serves, or nil when
// the server runs without a data directory.
func (s *Server) WALHealth() *WALHealth {
	if s.wal == nil {
		return nil
	}
	return s.wal.health()
}

// Err returns the backend's terminal error, if it failed.
func (s *Server) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *Server) setErr(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// run is the backend worker: learn over the warmup buckets, then step the
// pipeline once per sealed bucket until the queue drains, publishing each
// job report. It is the batch CLI's warmup+run loop inverted — the loop no
// longer pulls buckets toward a fixed horizon; the queue's seals push it
// forward.
func (s *Server) run() {
	defer close(s.done)
	ctx := s.bctx
	first := s.cfg.WarmupBuckets
	switch {
	case s.wal != nil && s.wal.restored != nil:
		// The checkpoint holds the warmed-up pipeline after this bucket.
		first = s.wal.restored.Bucket + 1
	case s.cfg.WarmupBuckets > 0:
		if err := s.pipe.WarmupContext(ctx, 0, s.cfg.WarmupBuckets); err != nil {
			s.setErr(fmt.Errorf("server: warmup: %w", err))
			return
		}
	default:
		s.pipe.SetThresholds(s.pipe.Learner.Snapshot())
	}
	for b := first; ; b++ {
		if !s.q.awaitBucket(ctx, b) {
			break
		}
		rep, err := s.pipe.StepContext(ctx, b)
		if err != nil {
			s.setErr(fmt.Errorf("server: step bucket %d: %w", b, err))
			return
		}
		s.publish(rep, rep != nil && s.checkpointDue(b))
		if s.wal != nil && s.wal.flushedAfter[b] {
			// The journal has a drain flush here: an earlier incarnation
			// stopped gracefully after this bucket.
			if !s.flush(ctx) {
				return
			}
		}
		pending, _ := s.q.Depth()
		s.gQueueDepth.Set(int64(pending))
	}
	if err := ctx.Err(); err != nil {
		s.setErr(err)
		return
	}
	// Drain complete: flush the partial window so the records of a run
	// that stopped off the job cadence still get localized and reported.
	s.flush(context.Background())
}

// flush runs the job over the partially accumulated window and publishes
// its report, if there is one. It reports false when the backend failed.
func (s *Server) flush(ctx context.Context) bool {
	rep, err := s.pipe.FinalizeContext(ctx)
	if err != nil {
		s.setErr(fmt.Errorf("server: finalize: %w", err))
		return false
	}
	s.publish(rep, false)
	return true
}

// publish renders, retains, and journals one report, cutting a checkpoint
// after it when checkpoint is set. A nil report (a step between job runs)
// is a no-op.
func (s *Server) publish(rep *pipeline.Report, checkpoint bool) {
	if rep == nil {
		return
	}
	canonical, err := rep.CanonicalJSON()
	if err != nil {
		s.setErr(fmt.Errorf("server: canonicalize report [%d, %d]: %w", rep.From, rep.To, err))
		return
	}
	sr := stored(s.reports.count(), rep, canonical)
	switch {
	case s.wal != nil && checkpoint:
		// The report's record and the checkpoint holding it reach the
		// kernel before the report is served.
		s.wal.journalReport(sr.seq, rep, canonical)
		if !s.checkpoint(sr) || s.killed("checkpointed") {
			return
		}
		s.reports.add(sr)
	case s.wal != nil:
		s.reports.add(sr)
		s.wal.journalReport(sr.seq, rep, canonical)
	default:
		s.reports.add(sr)
	}
	s.mReportsPub.Inc()
}

// killed reports whether Config.killAt stops the backend at phase, and if
// so cancels it: nothing after this point reaches the disk or a reader.
func (s *Server) killed(phase string) bool {
	if s.cfg.killAt == nil || !s.cfg.killAt(phase) {
		return false
	}
	s.bcancel()
	return true
}

// Shutdown drains the daemon gracefully: ingestion stops (new batches get
// 503), every bucket already queued is stepped, the in-flight window is
// flushed as a final report, and the backend exits. If ctx expires first,
// the backend is cancelled hard. Returns the backend's terminal error
// (nil after a clean drain).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.q.Close()
	select {
	case <-s.done:
	case <-ctx.Done():
		s.bcancel()
		<-s.done
	}
	s.bcancel()
	if s.wal != nil {
		// Everything the backend will ever journal is journaled; let a
		// compaction pass still running finish, then sync and close so
		// even SyncOff leaves a complete log behind.
		s.wal.stopCompacting()
		if err := s.wal.log.Close(); err != nil {
			s.wal.absorb(err)
		}
	}
	return s.Err()
}
