package server

import (
	"errors"
	"net/http"
	"sort"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/quartet"
	"blameit/internal/trace"
)

// The aggregate feed: POST /v1/aggregates accepts JSONL AggCell batches
// from an edge-aggregating fleet. Cells regroup into partials by their
// (agent, epoch, seq) identity, partials merge — deduplicated by that
// identity — into a per-bucket quartet.Aggregate, and a bucket's merged
// aggregate is flushed into the ingest queue as its canonically ordered
// reconstructed observations when the bucket completes: when a later
// bucket's cells arrive (streaming mode), when POST /v1/seal covers it,
// or at drain. Flushing canonical observations through the same queue
// the raw feed uses is what makes fleet-over-HTTP reports byte-identical
// to the batch run regardless of batch arrival order: within a bucket,
// delivery order dissolves into the aggregate's canonical fold.
//
// Partials must arrive whole — one partial's cells within one batch. A
// redelivered (agent, epoch, seq) is deduplicated while its bucket is
// buffered; cells arriving for an already-flushed bucket form a fresh
// aggregate that flushes on the next trigger, where the pipeline's
// quarantine rejects the records as late — the same treatment a raw
// late batch gets.

// aggState buffers not-yet-flushed per-bucket aggregates.
type aggState struct {
	pending map[netmodel.Bucket]*quartet.Aggregate
	// buffered counts merged cells awaiting flush, for backpressure.
	buffered int
	// high is the highest bucket seen; its arrival implies every bucket
	// below it is complete (the streaming watermark discipline).
	high netmodel.Bucket
}

// aggResponse summarizes one accepted aggregate batch.
type aggResponse struct {
	Cells    int `json:"cells"`
	Partials int `json:"partials"`
	// Deduped counts partials rejected as redeliveries of an identity
	// already merged into a buffered bucket.
	Deduped int `json:"deduped,omitempty"`
	// Rejected counts salvage-mode lines diverted to the quarantine.
	Rejected int `json:"rejected,omitempty"`
}

// handleAggregates accepts one JSONL aggregate-cell batch. Body bounds,
// salvage mode, draining, and backpressure behave exactly as on
// /v1/ingest; the difference is what a record is (a partial's cell, not
// a raw observation) and that admission is graded against the buffered
// aggregates plus the queue, since accepted cells occupy memory until
// their bucket flushes.
func (s *Server) handleAggregates(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: ingestion is closed")
		return
	}
	body, err := readBatch(w, r, s.cfg.MaxBatchBytes)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.mOversized.Inc()
			s.mAggRejected.Inc()
			writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d bytes", tooLarge.Limit)
			return
		}
		s.mAggRejected.Inc()
		writeError(w, http.StatusBadRequest, "reading batch: %v", err)
		return
	}
	salvage := r.URL.Query().Get("mode") == "salvage"
	var onBad func([]byte)
	rejected := 0
	if salvage {
		at := s.q.Watermark()
		onBad = func(line []byte) {
			rejected++
			s.frontMu.Lock()
			s.frontQuar.RejectLine(line, at)
			s.frontMu.Unlock()
		}
	}
	cells, err := ingest.DecodeAggBatch(body, make([]ingest.AggCell, 0, batchLines(body)), onBad)
	if err != nil {
		s.mAggRejected.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.aggMu.Lock()
	queued, _ := s.q.Depth()
	if s.cfg.MaxPendingRecords > 0 && queued+s.agg.buffered+len(cells) > s.cfg.MaxPendingRecords {
		occupied := queued + s.agg.buffered
		s.aggMu.Unlock()
		s.mBackpress.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(occupied, s.cfg.MaxPendingRecords))
		writeError(w, http.StatusTooManyRequests, "aggregate buffer full (%d records pending); retry after the backend drains", s.cfg.MaxPendingRecords)
		return
	}
	if s.wal != nil {
		// Journal the accepted cells before they merge: the buffered
		// aggregate state is reconstructed on restart by replaying these
		// batches through the same merge path.
		s.wal.journalAggBatch(cells)
	}
	partials, deduped := s.mergeCellsLocked(cells)
	// Streaming discipline: the highest bucket seen completes everything
	// below it. Manual-seal deployments flush only on POST /v1/seal.
	var flushErr error
	if !s.cfg.ManualSeal && s.agg.high > 0 {
		flushErr = s.flushAggLocked(s.agg.high - 1)
	}
	s.aggMu.Unlock()
	if flushErr != nil {
		// The batch itself is buffered; only the flush of completed
		// buckets hit queue backpressure. It retries on the next trigger.
		s.mBackpress.Inc()
	}
	s.mAggBatches.Inc()
	s.mAggCells.Add(int64(len(cells)))
	s.mAggPartials.Add(int64(partials))
	s.mAggDeduped.Add(int64(deduped))
	writeJSON(w, http.StatusAccepted, aggResponse{
		Cells: len(cells), Partials: partials, Deduped: deduped, Rejected: rejected,
	})
}

// mergeCellsLocked regroups a batch's cells into partials (arrival
// order preserved within each partial) and merges them into their
// buckets' aggregates. Caller holds aggMu.
func (s *Server) mergeCellsLocked(cells []ingest.AggCell) (partials, deduped int) {
	type pkey struct {
		id quartet.PartialID
		b  netmodel.Bucket
	}
	var order []*quartet.Partial
	batch := make(map[pkey]*quartet.Partial)
	for _, c := range cells {
		k := pkey{id: c.ID(), b: c.Bucket}
		p := batch[k]
		if p == nil {
			p = quartet.NewPartial(k.id, k.b)
			batch[k] = p
			order = append(order, p)
		}
		p.Observe(c.Observation())
	}
	for _, p := range order {
		agg := s.agg.pending[p.Bucket]
		if agg == nil {
			agg = quartet.NewAggregate(p.Bucket)
			s.agg.pending[p.Bucket] = agg
		}
		if agg.Add(p) {
			partials++
			s.agg.buffered += len(p.Cells)
		} else {
			deduped++
		}
		if p.Bucket > s.agg.high {
			s.agg.high = p.Bucket
		}
	}
	return partials, deduped
}

// flushAggLocked pushes every buffered bucket <= through into the ingest
// queue as canonically ordered reconstructed observations, in bucket
// order. On queue backpressure the remaining buckets stay buffered and
// the error is returned so the caller can surface a retry; a closed
// queue discards what remains (the drain path flushes before closing).
// Caller holds aggMu.
func (s *Server) flushAggLocked(through netmodel.Bucket) error {
	if len(s.agg.pending) == 0 {
		return nil
	}
	var due []netmodel.Bucket
	for b := range s.agg.pending {
		if b <= through {
			due = append(due, b)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, b := range due {
		agg := s.agg.pending[b]
		obs := agg.Observations(make([]trace.Observation, 0, len(agg.Cells())))
		if err := s.q.Push(obs); err != nil {
			if errors.Is(err, ErrBackpressure) {
				return err
			}
			// Closed: the records have nowhere to go.
			delete(s.agg.pending, b)
			s.agg.buffered -= len(obs)
			continue
		}
		delete(s.agg.pending, b)
		s.agg.buffered -= len(obs)
		if s.wal != nil {
			// The bucket's cells left the buffer (the Push above
			// journaled their reconstruction as a queue batch); the
			// flush marker stops replay from re-buffering them.
			s.wal.journalAggFlush(b, s.agg.high)
		}
		s.mAggFlushed.Add(int64(len(obs)))
	}
	// Make the flushed buckets readable even if no raw record for a
	// later bucket ever arrives to advance the queue's watermark.
	s.q.SealThrough(through)
	return nil
}

// flushAggregates flushes buffered aggregates through the bucket, for
// the seal handler and the drain path.
func (s *Server) flushAggregates(through netmodel.Bucket) error {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return s.flushAggLocked(through)
}

// aggBuffered reports buffered cell count and bucket count (tests,
// healthz).
func (s *Server) aggStats() (cells, buckets int) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return s.agg.buffered, len(s.agg.pending)
}
