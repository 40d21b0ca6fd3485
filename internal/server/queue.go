package server

import (
	"context"
	"errors"
	"sort"
	"sync"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/quartet"
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

// queueJournal receives the queue's externally visible events for the
// durability layer: accepted batches in push order, explicit seals, and
// the exact per-bucket streams served to the backend. Calls happen under
// the queue lock, so journal order IS queue order — which is what makes
// replaying the journal reconstruct the queue's behavior exactly. The
// journal is best-effort: implementations absorb their own errors
// (degrading durability loudly) rather than failing the data plane.
type queueJournal interface {
	journalBatch(obs []trace.Observation)
	journalAggBatch(cells []ingest.AggCell)
	journalSeal(through netmodel.Bucket)
	journalBucket(b netmodel.Bucket, obs []trace.Observation)
}

// run is one bucket's records from one body, in body order. A run of the
// raw feed is anonymous; a run of the aggregate feed is one partial and
// carries its identity.
type run struct {
	id  quartet.PartialID
	agg bool
	obs []trace.Observation
}

// partialKey identifies a pending aggregate run.
type partialKey struct {
	b  netmodel.Bucket
	id quartet.PartialID
}

// cellRuns regroups a decoded aggregate batch into runs, one per (agent,
// epoch, seq, bucket) in order of first appearance, each partial's cells in
// body order. A partial's cells normally sit together, and its run is then
// a slice of the one array the cells were converted into.
func cellRuns(cells []ingest.AggCell) []run {
	obs := make([]trace.Observation, len(cells))
	for i, c := range cells {
		obs[i] = c.Observation()
	}
	var runs []run
	index := make(map[partialKey]int)
	for i := 0; i < len(cells); {
		k := partialKey{cells[i].Bucket, cells[i].ID()}
		n := i + 1
		for n < len(cells) && cells[n].Bucket == k.b && cells[n].ID() == k.id {
			n++
		}
		if at, seen := index[k]; seen {
			runs[at].obs = append(runs[at].obs, obs[i:n]...)
		} else {
			index[k] = len(runs)
			runs = append(runs, run{id: k.id, agg: true, obs: obs[i:n:n]})
		}
		i = n
	}
	return runs
}

// cellAdmission is what became of one accepted aggregate batch.
type cellAdmission struct {
	partials int // runs queued
	deduped  int // runs dropped as redeliveries
	records  int // cells queued
}

// ingestQueue is the seam between the HTTP frontend and the pipeline
// backend, and the daemon's one ingest buffer: both POST handlers push
// their decoded batches into it as per-bucket runs, and the backend reads
// them out through the ingest.ObservationSource interface — the same
// interface a file replay or a live simulator feeds the pipeline through,
// which is what keeps the daemon byte-equivalent to the batch CLI.
//
// A bucket becomes readable when it SEALS. In the streaming mode (the
// default), a record for bucket X seals every bucket below X — the
// watermark discipline of a bucket-ordered trace replay. SealThrough
// advances the watermark explicitly (the loadgen's final seal, or a
// deployment that seals on wall-clock). Closing the queue seals everything
// still pending, so a draining backend steps the remaining buckets and
// stops.
//
// Ordering: a bucket is served as its runs concatenated — the raw feed's
// runs first, in arrival order (the order-equivalence contract of
// ObservationSource), then the aggregate feed's in PartialID order, which
// is the canonical fold of quartet.Aggregate: a bucket's partials give the
// same stream in whatever order, and split over whatever bodies, they
// arrived. A partial redelivered while its bucket is still pending is
// dropped by its (agent, epoch, seq) identity. Nothing is merged: two
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

	// jrn, when non-nil, journals accepted batches, seals, and consumed
	// buckets. It is nil during recovery replay — replayed events are
	// already in the journal — and installed via setJournal once the
	// replay has caught up.
	jrn queueJournal

	pending map[netmodel.Bucket][]run
	// partials holds the identity of every pending aggregate run, to drop
	// redeliveries by.
	partials map[partialKey]struct{}
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
		pending:    make(map[netmodel.Bucket][]run),
		partials:   make(map[partialKey]struct{}),
		maxRecords: maxRecords,
		manualSeal: manualSeal,
		stepped:    -1,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues one decoded raw batch. The whole batch is accepted or
// refused: over capacity returns ErrBackpressure (nothing enqueued), after
// Close returns ErrClosed. An accepted batch belongs to the queue: the
// caller must not write to obs afterwards.
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
	q.pushLocked(obs)
	return nil
}

// PushCells is Push for one decoded aggregate batch. Admission is graded
// on the whole batch, redeliveries included.
func (q *ingestQueue) PushCells(cells []ingest.AggCell) (cellAdmission, error) {
	runs := cellRuns(cells)
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.admitLocked(len(cells)); err != nil {
		return cellAdmission{}, err
	}
	if q.jrn != nil {
		q.jrn.journalAggBatch(cells)
	}
	return q.pushRunsLocked(runs), nil
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

// pushRecovered enqueues what is left of a batch replayed from the journal:
// no capacity check (the records were accepted once already and must not be
// dropped now) and no re-journaling.
func (q *ingestQueue) pushRecovered(obs []trace.Observation, cells []ingest.AggCell) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.pushLocked(obs)
	q.pushRunsLocked(cellRuns(cells))
}

// pushLocked routes a raw batch into the queue, which takes the slice over:
// a batch is mostly one bucket's records, so each stretch of equal buckets
// becomes a run where it was decoded instead of being copied.
func (q *ingestQueue) pushLocked(obs []trace.Observation) {
	for len(obs) > 0 {
		n := 1
		for n < len(obs) && obs[n].Bucket == obs[0].Bucket {
			n++
		}
		q.pushRunLocked(run{obs: obs[:n]})
		obs = obs[n:]
	}
	q.cond.Broadcast()
}

func (q *ingestQueue) pushRunsLocked(runs []run) (adm cellAdmission) {
	for _, r := range runs {
		if q.pushRunLocked(r) {
			adm.partials++
			adm.records += len(r.obs)
		} else {
			adm.deduped++
		}
	}
	q.cond.Broadcast()
	return adm
}

// pushRunLocked queues one run under its bucket, or holds it as stale when
// the bucket is already consumed. It reports false, queueing nothing, for
// an aggregate run whose identity is already pending.
func (q *ingestQueue) pushRunLocked(r run) bool {
	b := r.obs[0].Bucket
	if b < q.frontier {
		q.stale = append(q.stale, r.obs...)
	} else {
		if r.agg {
			k := partialKey{b, r.id}
			if _, dup := q.partials[k]; dup {
				return false
			}
			q.partials[k] = struct{}{}
		}
		q.pending[b] = append(q.pending[b], r)
		if !q.manualSeal && b > q.watermark {
			q.watermark = b
		}
	}
	q.records += len(r.obs)
	q.pushed += int64(len(r.obs))
	return true
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

// dropLocked forgets bucket b's pending runs and returns how many records
// they held.
func (q *ingestQueue) dropLocked(b netmodel.Bucket) (n int) {
	for _, r := range q.pending[b] {
		n += len(r.obs)
		if r.agg {
			delete(q.partials, partialKey{b, r.id})
		}
	}
	delete(q.pending, b)
	q.records -= n
	return n
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
			q.discarded += int64(q.dropLocked(pb))
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
// runs — raw ones in arrival order, then aggregate ones in PartialID order
// — preceded by any held stale records (the pipeline's quarantine rejects
// those as late). It blocks until b seals,
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
	q.records -= len(q.stale)
	q.stale = q.stale[:0]
	runs := q.pending[b]
	sort.SliceStable(runs, func(i, j int) bool {
		if runs[i].agg != runs[j].agg {
			return runs[j].agg
		}
		return runs[i].agg && runs[i].id.Less(runs[j].id)
	})
	for _, r := range runs {
		buf = append(buf, r.obs...)
	}
	q.dropLocked(b)
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
