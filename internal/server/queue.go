package server

import (
	"context"
	"errors"
	"sync"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// Errors the frontend maps to HTTP status codes.
var (
	// ErrBackpressure means the queue is at capacity; the client should
	// retry after the backend drains (HTTP 429).
	ErrBackpressure = errors.New("server: ingest queue full")
	// ErrClosed means the server is draining and accepts no more records
	// (HTTP 503).
	ErrClosed = errors.New("server: ingest queue closed")
)

// ingestQueue is the seam between the HTTP frontend and the pipeline
// backend: handlers Push record batches into per-bucket pending buffers,
// and the backend reads them out through the ingest.ObservationSource
// interface — the same interface a file replay or a live simulator feeds
// the pipeline through, which is what keeps the daemon byte-equivalent to
// the batch CLI.
//
// A bucket becomes readable when it SEALS. In the streaming mode (the
// default), a record for bucket X seals every bucket below X — the
// watermark discipline of a bucket-ordered trace replay. SealThrough
// advances the watermark explicitly (the loadgen's final seal, or a
// deployment that seals on wall-clock). Closing the queue seals everything
// still pending, so a draining backend steps the remaining buckets and
// stops.
//
// Ordering: within a bucket, records are served in arrival order (Push
// appends under the lock), which is the order-equivalence contract of
// ObservationSource. Records arriving for a bucket the backend has already
// consumed are held and delivered with the next read, where the pipeline's
// quarantine rejects them as late — exactly how a chaos-injected late
// batch is treated. Records for buckets the backend skipped over (warmup
// subsampling) are discarded, as a streaming replay discards them.
// queueJournal receives the queue's externally visible events for the
// durability layer: accepted batches in push order, explicit seals, and
// the exact per-bucket streams served to the backend. Calls happen under
// the queue lock, so journal order IS queue order — which is what makes
// replaying the journal reconstruct the queue's behavior exactly. The
// journal is best-effort: implementations absorb their own errors
// (degrading durability loudly) rather than failing the data plane.
type queueJournal interface {
	journalBatch(obs []trace.Observation)
	journalSeal(through netmodel.Bucket)
	journalBucket(b netmodel.Bucket, obs []trace.Observation)
}

type ingestQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	// jrn, when non-nil, journals accepted batches, seals, and consumed
	// buckets. It is nil during recovery replay — replayed events are
	// already in the journal — and installed via setJournal once the
	// replay has caught up.
	jrn queueJournal

	pending map[netmodel.Bucket][]trace.Observation
	// stale holds arrivals for already-consumed buckets until the next
	// read flushes them into the pipeline's late-record quarantine path.
	stale []trace.Observation

	// frontier is the next bucket the backend will read; every bucket
	// below it has been consumed or skipped.
	frontier netmodel.Bucket
	// watermark is the lowest unsealed bucket: reads for b < watermark
	// proceed, reads at or above it block.
	watermark netmodel.Bucket
	// stepped is the highest bucket the backend has fully stepped AND
	// published (markStepped); recovery's replay barriers wait on it.
	stepped netmodel.Bucket

	records    int // pending + stale records, for backpressure
	maxRecords int // 0 = unbounded
	manualSeal bool
	closed     bool

	discarded int64 // records dropped for skipped (subsampled) buckets
	pushed    int64 // records accepted over the queue's lifetime
}

func newIngestQueue(maxRecords int, manualSeal bool) *ingestQueue {
	q := &ingestQueue{
		pending:    make(map[netmodel.Bucket][]trace.Observation),
		maxRecords: maxRecords,
		manualSeal: manualSeal,
		stepped:    -1,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues one decoded batch. The whole batch is accepted or refused:
// over capacity returns ErrBackpressure (nothing enqueued), after Close
// returns ErrClosed. An accepted batch belongs to the queue: the caller
// must not write to obs afterwards.
func (q *ingestQueue) Push(obs []trace.Observation) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.maxRecords > 0 && q.records+len(obs) > q.maxRecords {
		return ErrBackpressure
	}
	if q.jrn != nil {
		// Journal before the in-memory accept so an acknowledged batch is
		// at least as durable as the fsync policy promises.
		q.jrn.journalBatch(obs)
	}
	q.pushLocked(obs)
	return nil
}

// pushRecovered enqueues a batch replayed from the journal: no capacity
// check (the records were accepted once already and must not be dropped
// now) and no re-journaling.
func (q *ingestQueue) pushRecovered(obs []trace.Observation) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.pushLocked(obs)
}

// pushLocked routes a batch into the queue, which takes the slice over:
// a batch is mostly one bucket's records, so each run of equal buckets is
// moved as a whole, and a run that opens its bucket stays where it was
// decoded instead of being copied (capacity clipped, so that appending to
// one bucket cannot write into the next run).
func (q *ingestQueue) pushLocked(obs []trace.Observation) {
	q.records += len(obs)
	q.pushed += int64(len(obs))
	for len(obs) > 0 {
		b, n := obs[0].Bucket, 1
		for n < len(obs) && obs[n].Bucket == b {
			n++
		}
		run := obs[:n:n]
		obs = obs[n:]
		switch {
		case b < q.frontier:
			q.stale = append(q.stale, run...)
			continue
		case q.pending[b] == nil:
			q.pending[b] = run
		default:
			q.pending[b] = append(q.pending[b], run...)
		}
		if !q.manualSeal && b > q.watermark {
			q.watermark = b
		}
	}
	q.cond.Broadcast()
}

// SealThrough marks every bucket up to and including b as sealed, letting
// the backend read them even though no later record has arrived. The
// watermark never regresses.
func (q *ingestQueue) SealThrough(b netmodel.Bucket) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.jrn != nil {
		q.jrn.journalSeal(b)
	}
	q.sealThroughLocked(b)
}

// sealRecovered replays a journaled seal without re-journaling it.
func (q *ingestQueue) sealRecovered(b netmodel.Bucket) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sealThroughLocked(b)
}

func (q *ingestQueue) sealThroughLocked(b netmodel.Bucket) {
	if b+1 > q.watermark {
		q.watermark = b + 1
	}
	q.cond.Broadcast()
}

// setJournal installs the journal once recovery replay has caught up.
func (q *ingestQueue) setJournal(j queueJournal) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jrn = j
}

// awaitFrontier blocks until the backend has consumed every bucket below
// b (or ctx is cancelled / the queue closed). Recovery replays one
// journaled bucket at a time and waits for the backend to drain it before
// feeding the next, so consumption order reproduces the journal exactly.
func (q *ingestQueue) awaitFrontier(ctx context.Context, b netmodel.Bucket) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	stop := context.AfterFunc(ctx, q.cond.Broadcast)
	defer stop()
	for q.frontier < b && !q.closed && ctx.Err() == nil {
		q.cond.Wait()
	}
	return q.frontier >= b
}

// Close stops ingestion and seals everything pending: Push fails with
// ErrClosed, blocked reads return, and awaitBucket reports done once the
// backlog is drained.
func (q *ingestQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Depth reports the queued record count and the accepted total.
func (q *ingestQueue) Depth() (pending int, pushed int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.records, q.pushed
}

// Discarded reports records dropped for buckets the backend skipped.
func (q *ingestQueue) Discarded() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.discarded
}

// Watermark returns the lowest unsealed bucket.
func (q *ingestQueue) Watermark() netmodel.Bucket {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.watermark
}

// maxQueuedLocked returns the highest bucket with pending records, or -1.
func (q *ingestQueue) maxQueuedLocked() netmodel.Bucket {
	max := netmodel.Bucket(-1)
	for b := range q.pending {
		if b > max {
			max = b
		}
	}
	return max
}

// discardBelowLocked drops pending buckets below b — the backend skipped
// them (warmup subsampling) and a streaming source discards skipped
// records rather than serving them late.
func (q *ingestQueue) discardBelowLocked(b netmodel.Bucket) {
	for pb, obs := range q.pending {
		if pb < b {
			q.records -= len(obs)
			q.discarded += int64(len(obs))
			delete(q.pending, pb)
		}
	}
}

// awaitBucket blocks until bucket b is sealed (returns true: step it) or
// the queue is closed and nothing at or past b remains (returns false: the
// drain is complete). After Close it keeps returning true while records at
// or past b — or held stale records — remain, so a draining backend
// flushes the in-flight buckets instead of abandoning them. Cancelling ctx
// returns false immediately.
func (q *ingestQueue) awaitBucket(ctx context.Context, b netmodel.Bucket) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	stop := context.AfterFunc(ctx, q.cond.Broadcast)
	defer stop()
	for {
		if ctx.Err() != nil {
			return false
		}
		if b < q.watermark {
			return true
		}
		if q.closed {
			return q.maxQueuedLocked() >= b || len(q.stale) > 0
		}
		q.cond.Wait()
	}
}

// ObservationsAt implements ingest.ObservationSource: it serves bucket b's
// records in arrival order, preceded by any held stale records (the
// pipeline's quarantine rejects those as late). It blocks until b seals,
// the queue closes, or ctx is cancelled; the pipeline's warmup and step
// loops call it with non-decreasing buckets, discarding skipped ones.
func (q *ingestQueue) ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.discardBelowLocked(b)
	stop := context.AfterFunc(ctx, q.cond.Broadcast)
	defer stop()
	for b >= q.watermark && !q.closed && ctx.Err() == nil {
		q.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return buf, err
	}
	start := len(buf)
	buf = append(buf, q.stale...)
	buf = append(buf, q.pending[b]...)
	q.records -= len(q.stale) + len(q.pending[b])
	q.stale = q.stale[:0]
	delete(q.pending, b)
	if q.jrn != nil {
		// Journal the exact slice served — stale-first order and all, and
		// empty reads too: replaying these streams in order IS how recovery
		// reconstructs the pipeline, so the journal must record every
		// consumption, not just the non-empty ones.
		q.jrn.journalBucket(b, buf[start:])
	}
	if b+1 > q.frontier {
		q.frontier = b + 1
	}
	q.cond.Broadcast()
	return buf, nil
}

// markStepped records that the backend finished the whole step for bucket
// b — pipeline mutation AND report publication. awaitFrontier only proves
// the read happened; recovery needs this stronger barrier before touching
// pipeline state (DiscardWindow) between replayed buckets.
func (q *ingestQueue) markStepped(b netmodel.Bucket) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if b > q.stepped {
		q.stepped = b
	}
	q.cond.Broadcast()
}

// awaitStepped blocks until markStepped(b) (or ctx cancellation / queue
// close). Returns whether the step completed.
func (q *ingestQueue) awaitStepped(ctx context.Context, b netmodel.Bucket) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	stop := context.AfterFunc(ctx, q.cond.Broadcast)
	defer stop()
	for q.stepped < b && !q.closed && ctx.Err() == nil {
		q.cond.Wait()
	}
	return q.stepped >= b
}
