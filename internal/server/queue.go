package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/quartet"
	"blameit/internal/trace"
	"blameit/internal/wal"
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

// queueJournal receives the queue's externally visible events for the
// durability layer: accepted batches in push order, explicit seals, and
// each bucket read with the stream it served. Calls happen under the
// queue lock, so journal order IS queue order — which is what makes
// pushing the journal back through the queue reconstruct its behavior
// exactly. The journal is best-effort: implementations absorb their own
// errors (degrading durability loudly) rather than failing the data plane.
type queueJournal interface {
	journalBatch(obs []trace.Observation)
	journalAggBatch(cells []ingest.AggCell)
	journalSeal(through netmodel.Bucket)
	journalBucket(b netmodel.Bucket, obs []trace.Observation)
}

// pendingBucket is one unread bucket's records: the raw feed's records,
// each body's stretch of the bucket copied in in arrival order, and the
// aggregate feed's partials in a quartet.Aggregate, which owns PartialID
// order and (agent, epoch, seq) dedup.
type pendingBucket struct {
	raw     []trace.Observation
	agg     *quartet.Aggregate // nil until a partial arrives
	records int
}

// maxFreeRaw bounds the queue's free list of raw slices: a pending bucket
// takes one when it is created and gives it back when it is read or
// dropped, and only the few buckets in flight at once need one each. A
// slice beyond maxPooledBytes is left to the collector.
const maxFreeRaw = 8

// cellAdmission is what became of one accepted aggregate batch.
type cellAdmission struct {
	partials int // partials queued
	deduped  int // partials refused as redeliveries
	records  int // cells queued
}

// ingestQueue is the seam between the HTTP frontend and the pipeline
// backend, and the daemon's one ingest buffer: both POST handlers push
// their decoded batches into it as per-bucket runs, and the backend reads
// them out through the ingest.ObservationSource interface — the same
// interface a file replay or a live simulator feeds the pipeline through,
// which is what keeps the daemon byte-equivalent to the batch CLI.
//
// A queue recovered over a journal (DESIGN.md §14) replays it first: each
// batch and seal is applied where the journal has it, and each journaled
// read is the backend's next read, re-derived and checked against its
// count, not journaled again. Nothing new is readable until they are
// spent.
//
// A bucket becomes readable when it SEALS. In the streaming mode (the
// default), a record for bucket X seals every bucket below X — the
// watermark discipline of a bucket-ordered trace replay. SealThrough
// advances the watermark explicitly (the loadgen's final seal, or a
// deployment that seals on wall-clock). Closing the queue seals everything
// still pending, so a draining backend steps the remaining buckets and
// stops.
//
// Ordering: a bucket is served as the raw feed's runs in arrival order (the
// order-equivalence contract of ObservationSource), then the bucket's
// quartet.Aggregate: its partials in PartialID order, so they give the same
// stream in whatever order, and split over whatever bodies, they arrived.
// A partial redelivered while its bucket is still pending is refused by the
// aggregate, by its (agent, epoch, seq) identity. Nothing is merged: two
// partials (or two cells of one) claiming the same quartet both reach the
// pipeline, whose quarantine keeps the first and counts the other as a
// duplicate. Records arriving for a bucket the backend has already
// consumed are held and delivered with the next read, where the quarantine
// rejects them as late — exactly how a chaos-injected late batch is
// treated. Records for buckets the backend skipped over (warmup
// subsampling) are discarded, as a streaming replay discards them.
type ingestQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	// jrn, when non-nil, journals accepted batches, seals, and reads.
	jrn queueJournal

	// replay holds the journal records not yet applied again. They are
	// not journaled a second time.
	replay []wal.Record
	// caughtUp is closed when the backend first asks for a bucket with no
	// journaled read left. It asks for nothing before the previous step is
	// published, so the journal has been re-stepped by then.
	caughtUp     chan struct{}
	caughtUpOnce sync.Once

	pending map[netmodel.Bucket]*pendingBucket
	// freeRaw recycles the raw slices of read and dropped buckets.
	freeRaw [][]trace.Observation
	// stale holds arrivals for already-consumed buckets until the next
	// read flushes them into the pipeline's late-record quarantine path.
	stale []trace.Observation

	// frontier is the next bucket the backend will read; every bucket
	// below it has been consumed or skipped.
	frontier netmodel.Bucket
	// watermark is the lowest unsealed bucket: reads for b < watermark
	// proceed, reads at or above it block.
	watermark netmodel.Bucket

	records    int // pending + stale records, for backpressure
	maxRecords int // 0 = unbounded
	manualSeal bool
	closed     bool

	// reads counts the bucket reads served, replayed ones and those a
	// restored checkpoint folds in included: the journal's position.
	reads int

	pushed int64 // records accepted over the queue's lifetime
}

// newIngestQueue builds an empty queue.
func newIngestQueue(maxRecords int, manualSeal bool) *ingestQueue {
	q := &ingestQueue{
		caughtUp:   make(chan struct{}),
		pending:    make(map[netmodel.Bucket]*pendingBucket),
		maxRecords: maxRecords,
		manualSeal: manualSeal,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// recover installs the journal and what its scan recovered after the
// checkpoint the queue was restored from, if any, before the queue serves
// anything: the backend's reads replay it.
func (q *ingestQueue) recover(jrn queueJournal, rec *wal.Recovery) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jrn = jrn
	if ck := rec.Checkpoint; ck != nil {
		q.reads = ck.Reads
	}
	q.replay = rec.Journal
}

// replaying reports whether journaled reads remain to be served again.
// Without one, the rest of the journal is applied: a checkpoint cut now
// holds it.
func (q *ingestQueue) replaying() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.replayLocked()
}

// readCount returns how many bucket reads the queue has served.
func (q *ingestQueue) readCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.reads
}

// replayLocked applies the journal up to its next read — as it was
// applied live: each batch pushed, neither capacity-checked nor journaled
// again, and each seal at its place — and reports whether one is left.
// Without one it applies the rest.
func (q *ingestQueue) replayLocked() bool {
	for len(q.replay) > 0 {
		r := &q.replay[0]
		switch r.Kind {
		case wal.KindRead:
			return true
		case wal.KindSeal:
			q.sealThroughLocked(r.Bucket)
		default:
			q.pushLocked(r.Obs, ingest.PartialsOf(r.Cells))
		}
		*r = wal.Record{}
		q.replay = q.replay[1:]
	}
	return false
}

// caughtUpLocked reports whether no journaled read is left for the backend
// to ask for. The first call that finds none raises the watermark to the
// frontier — reads after a Close may have passed it, and this queue is
// open — and closes caughtUp.
func (q *ingestQueue) caughtUpLocked() bool {
	if q.replayLocked() {
		return false
	}
	q.caughtUpOnce.Do(func() {
		q.watermark = max(q.watermark, q.frontier)
		close(q.caughtUp)
	})
	return true
}

// Push enqueues one decoded raw batch. The whole batch is accepted or
// refused: over capacity returns ErrBackpressure (nothing enqueued), after
// Close returns ErrClosed. The queue copies what it accepts: obs is the
// caller's again once Push returns.
func (q *ingestQueue) Push(obs []trace.Observation) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.admitLocked(len(obs)); err != nil {
		return err
	}
	if q.jrn != nil {
		// Journal before the in-memory accept so an acknowledged batch is
		// at least as durable as the fsync policy promises.
		q.jrn.journalBatch(obs)
	}
	q.pushLocked(obs, nil)
	return nil
}

// PushCells is Push for one decoded aggregate batch. Admission is graded
// on the whole batch, redeliveries included. Like Push it copies:
// PartialsOf converts the cells into the partials' own array, and the
// journal has encoded the batch before PushCells returns.
func (q *ingestQueue) PushCells(cells []ingest.AggCell) (cellAdmission, error) {
	parts := ingest.PartialsOf(cells)
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.admitLocked(len(cells)); err != nil {
		return cellAdmission{}, err
	}
	if q.jrn != nil {
		q.jrn.journalAggBatch(cells)
	}
	return q.pushLocked(nil, parts), nil
}

func (q *ingestQueue) admitLocked(n int) error {
	if q.closed {
		return ErrClosed
	}
	if q.maxRecords > 0 && q.records+n > q.maxRecords {
		return ErrBackpressure
	}
	return nil
}

// pushLocked routes a raw batch and a regrouped aggregate batch into the
// queue. Each stretch of equal buckets in obs is one run, copied onto the
// end of its bucket's records.
func (q *ingestQueue) pushLocked(obs []trace.Observation, parts []*quartet.Partial) (adm cellAdmission) {
	for len(obs) > 0 {
		n := 1
		for n < len(obs) && obs[n].Bucket == obs[0].Bucket {
			n++
		}
		q.pushRunLocked(obs[:n])
		obs = obs[n:]
	}
	for _, p := range parts {
		if q.pushPartialLocked(p) {
			adm.partials++
			adm.records += len(p.Cells)
		} else {
			adm.deduped++
		}
	}
	q.cond.Broadcast()
	return adm
}

// pushRunLocked copies one raw run into its bucket, or holds it as stale
// when the bucket is already consumed.
func (q *ingestQueue) pushRunLocked(run []trace.Observation) {
	if b := run[0].Bucket; b < q.frontier {
		q.stale = append(q.stale, run...)
	} else {
		pb := q.bucketLocked(b)
		pb.raw = append(pb.raw, run...)
		pb.records += len(run)
	}
	q.records += len(run)
	q.pushed += int64(len(run))
}

// pushPartialLocked adds one partial to its bucket's aggregate, or holds its
// cells as stale observations when the bucket is already consumed. It
// reports false, queueing nothing, when the aggregate refuses the partial as
// a redelivery.
func (q *ingestQueue) pushPartialLocked(p *quartet.Partial) bool {
	if p.Bucket < q.frontier {
		for _, c := range p.Cells {
			q.stale = append(q.stale, c.Observation(p.Bucket))
		}
	} else {
		pb := q.bucketLocked(p.Bucket)
		if pb.agg == nil {
			pb.agg = quartet.NewAggregate(p.Bucket)
		}
		if !pb.agg.Add(p) {
			return false
		}
		pb.records += len(p.Cells)
	}
	q.records += len(p.Cells)
	q.pushed += int64(len(p.Cells))
	return true
}

// bucketLocked returns pending bucket b, at or past the frontier, creating
// it on first arrival — which, unsealed, seals every bucket below it.
func (q *ingestQueue) bucketLocked(b netmodel.Bucket) *pendingBucket {
	pb := q.pending[b]
	if pb == nil {
		pb = &pendingBucket{}
		if n := len(q.freeRaw); n > 0 {
			pb.raw = q.freeRaw[n-1]
			q.freeRaw = q.freeRaw[:n-1]
		}
		q.pending[b] = pb
		if !q.manualSeal && b > q.watermark {
			q.watermark = b
		}
	}
	return pb
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

func (q *ingestQueue) sealThroughLocked(b netmodel.Bucket) {
	if b+1 > q.watermark {
		q.watermark = b + 1
	}
	q.cond.Broadcast()
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

// Watermark returns the lowest unsealed bucket.
func (q *ingestQueue) Watermark() netmodel.Bucket {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.watermark
}

// dropLocked forgets bucket b's pending records, keeping their raw slice
// for a later bucket.
func (q *ingestQueue) dropLocked(b netmodel.Bucket) {
	pb := q.pending[b]
	if pb == nil {
		return
	}
	delete(q.pending, b)
	q.records -= pb.records
	if cap(pb.raw) > 0 && poolable(pb.raw) && len(q.freeRaw) < maxFreeRaw {
		q.freeRaw = append(q.freeRaw, pb.raw[:0])
	}
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
	for pb := range q.pending {
		if pb < b {
			q.dropLocked(pb)
		}
	}
}

// wake broadcasts under mu, for a cancelled context: a waiter that saw
// the context live before it Waits is then still woken.
func (q *ingestQueue) wake() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// awaitBucket blocks until bucket b is sealed — or is the next journaled
// read's (returns true: step it) — or
// the queue is closed and nothing at or past b remains (returns false: the
// drain is complete). After Close it keeps returning true while records at
// or past b — or held stale records — remain, so a draining backend
// flushes the in-flight buckets instead of abandoning them. Cancelling ctx
// returns false immediately.
func (q *ingestQueue) awaitBucket(ctx context.Context, b netmodel.Bucket) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	stop := context.AfterFunc(ctx, q.wake)
	defer stop()
	for {
		if ctx.Err() != nil {
			return false
		}
		if !q.caughtUpLocked() || b < q.watermark {
			return true
		}
		if q.closed {
			return q.maxQueuedLocked() >= b || len(q.stale) > 0
		}
		q.cond.Wait()
	}
}

// ObservationsAt implements ingest.ObservationSource: it serves bucket b's
// raw runs in arrival order, then its aggregate's partials in PartialID
// order, preceded by any held stale records (the pipeline's quarantine
// rejects those as late). It blocks until b seals, the queue closes, or
// ctx is cancelled; the pipeline's warmup and step loops call it with
// non-decreasing buckets, discarding skipped ones. While journaled reads
// remain, the next of them is served instead, without waiting: a backend
// under the configuration that wrote the journal asks for exactly the
// buckets it read before, and the queue, replayed to the read's place,
// serves the stream it served then — which must be as long as the
// journal says.
func (q *ingestQueue) ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.caughtUpLocked() {
		r := q.replay[0]
		if r.Bucket != b {
			return buf, fmt.Errorf("server: recovery: the backend reads bucket %d where the journal has bucket %d", b, r.Bucket)
		}
		q.replay = q.replay[1:]
		start := len(buf)
		if buf = q.readLocked(b, buf); len(buf)-start != r.Served {
			return buf[:start], fmt.Errorf("server: recovery: bucket %d served %d observations where the journal read %d", b, len(buf)-start, r.Served)
		}
		return buf, nil
	}
	q.discardBelowLocked(b)
	stop := context.AfterFunc(ctx, q.wake)
	defer stop()
	for b >= q.watermark && !q.closed && ctx.Err() == nil {
		q.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return buf, err
	}
	start := len(buf)
	buf = q.readLocked(b, buf)
	if q.jrn != nil {
		// Journal every read, empty ones too: replaying the journal steps
		// the pipeline once per read, so it must hold every one.
		q.jrn.journalBucket(b, buf[start:])
	}
	return buf, nil
}

// readLocked serves bucket b, live or replayed: the buckets below it
// dropped, the stale records first, then b's own, the frontier moved past
// it.
func (q *ingestQueue) readLocked(b netmodel.Bucket, buf []trace.Observation) []trace.Observation {
	q.discardBelowLocked(b)
	buf = append(buf, q.stale...)
	q.records -= len(q.stale)
	q.stale = q.stale[:0]
	if pb := q.pending[b]; pb != nil {
		buf = append(buf, pb.raw...)
		if pb.agg != nil {
			buf = pb.agg.Observations(buf)
		}
		q.dropLocked(b)
	}
	q.reads++
	if b+1 > q.frontier {
		q.frontier = b + 1
	}
	q.cond.Broadcast()
	return buf
}
