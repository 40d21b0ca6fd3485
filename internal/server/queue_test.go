package server

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

func obsAt(b netmodel.Bucket, n int) []trace.Observation {
	out := make([]trace.Observation, n)
	for i := range out {
		out[i] = trace.Observation{Prefix: netmodel.PrefixID(i), Bucket: b, Samples: 10, MeanRTT: 50, Clients: 3}
	}
	return out
}

// TestQueueStreamingSeal: a record for bucket X seals every bucket below
// X; reads serve sealed buckets in arrival order and block otherwise.
func TestQueueStreamingSeal(t *testing.T) {
	q := newIngestQueue(0, false, nil, nil)
	if err := q.Push(obsAt(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(obsAt(1, 2)); err != nil {
		t.Fatal(err)
	}
	if w := q.Watermark(); w != 1 {
		t.Fatalf("watermark = %d, want 1 (bucket-1 arrival seals bucket 0)", w)
	}
	got, err := q.ObservationsAt(context.Background(), 0, nil)
	if err != nil || len(got) != 3 {
		t.Fatalf("read bucket 0 = %d records, %v; want 3, nil", len(got), err)
	}
	// Bucket 1 is unsealed: the read must block until SealThrough.
	done := make(chan int, 1)
	go func() {
		o, _ := q.ObservationsAt(context.Background(), 1, nil)
		done <- len(o)
	}()
	select {
	case n := <-done:
		t.Fatalf("read of unsealed bucket 1 returned %d records without blocking", n)
	case <-time.After(20 * time.Millisecond):
	}
	q.SealThrough(1)
	if n := <-done; n != 2 {
		t.Fatalf("read bucket 1 = %d records, want 2", n)
	}
}

// TestQueueBackpressureWholeBatch: admission is all-or-nothing against
// MaxPendingRecords.
func TestQueueBackpressureWholeBatch(t *testing.T) {
	q := newIngestQueue(5, true, nil, nil)
	if err := q.Push(obsAt(0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(obsAt(0, 2)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow push = %v, want ErrBackpressure", err)
	}
	if pending, pushed := q.Depth(); pending != 4 || pushed != 4 {
		t.Fatalf("depth after refused batch = %d/%d, want 4/4 (nothing from the refused batch enqueued)", pending, pushed)
	}
	if err := q.Push(obsAt(0, 1)); err != nil {
		t.Fatalf("within-capacity push after refusal = %v, want nil", err)
	}
}

// TestQueueStaleServedOnNextRead: arrivals behind the read frontier are
// held and delivered with the next read, ahead of the bucket's own
// records, for the pipeline's late-record quarantine to reject.
func TestQueueStaleServedOnNextRead(t *testing.T) {
	q := newIngestQueue(0, true, nil, nil)
	q.SealThrough(0)
	if _, err := q.ObservationsAt(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(obsAt(0, 2)); err != nil { // behind the frontier now
		t.Fatal(err)
	}
	if err := q.Push(obsAt(1, 1)); err != nil {
		t.Fatal(err)
	}
	q.SealThrough(1)
	got, err := q.ObservationsAt(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Bucket != 0 || got[1].Bucket != 0 || got[2].Bucket != 1 {
		t.Fatalf("read = %+v, want the 2 stale bucket-0 records then the bucket-1 record", got)
	}
	if pending, _ := q.Depth(); pending != 0 {
		t.Fatalf("depth after drain = %d, want 0", pending)
	}
}

// TestQueueSkippedBucketsDiscarded: reads with non-decreasing buckets
// discard what the reader skipped (warmup subsampling), like a
// streaming replay.
func TestQueueSkippedBucketsDiscarded(t *testing.T) {
	q := newIngestQueue(0, true, nil, nil)
	for b := netmodel.Bucket(0); b < 4; b++ {
		if err := q.Push(obsAt(b, 2)); err != nil {
			t.Fatal(err)
		}
	}
	q.SealThrough(3)
	if _, err := q.ObservationsAt(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	got, err := q.ObservationsAt(context.Background(), 3, nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("read bucket 3 = %d records, %v; want 2, nil", len(got), err)
	}
	if d := q.discarded; d != 4 {
		t.Fatalf("discarded = %d, want 4 (buckets 1 and 2)", d)
	}
}

// TestQueueCloseDrains: after Close, awaitBucket keeps reporting work
// while queued or stale records remain at or past the bucket, then
// reports the drain complete; Push fails with ErrClosed.
func TestQueueCloseDrains(t *testing.T) {
	q := newIngestQueue(0, true, nil, nil)
	if err := q.Push(obsAt(2, 1)); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if err := q.Push(obsAt(3, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close = %v, want ErrClosed", err)
	}
	ctx := context.Background()
	for _, b := range []netmodel.Bucket{0, 1, 2} {
		if !q.awaitBucket(ctx, b) {
			t.Fatalf("awaitBucket(%d) = false with bucket 2 still queued", b)
		}
		if _, err := q.ObservationsAt(ctx, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if q.awaitBucket(ctx, 3) {
		t.Fatal("awaitBucket(3) = true after the backlog drained")
	}
}

// TestQueueContextCancellation: a cancelled context unblocks waiting
// reads with the context error and awaitBucket with false.
func TestQueueContextCancellation(t *testing.T) {
	q := newIngestQueue(0, true, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.ObservationsAt(ctx, 0, nil)
		errc <- err
	}()
	okc := make(chan bool, 1)
	go func() { okc <- q.awaitBucket(ctx, 0) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked read returned %v, want context.Canceled", err)
	}
	if ok := <-okc; ok {
		t.Fatal("awaitBucket = true after cancellation")
	}
}

// TestQueueKeepsRunsApart: the queue keeps a pushed batch's backing array,
// one run of it per bucket. Records arriving later for the first bucket
// must not be appended into the memory of the second run, and interleaved
// buckets must come out in arrival order.
func TestQueueKeepsRunsApart(t *testing.T) {
	q := newIngestQueue(0, true, nil, nil)
	batch := append(obsAt(0, 3), obsAt(1, 2)...)
	batch = append(batch, obsAt(0, 1)...) // bucket 0 again, after bucket 1
	for i := range batch {
		batch[i].Samples = 100 + i // tell the records apart
	}
	if err := q.Push(batch); err != nil {
		t.Fatal(err)
	}
	more := obsAt(0, 2)
	more[0].Samples, more[1].Samples = 200, 201
	if err := q.Push(more); err != nil {
		t.Fatal(err)
	}
	q.SealThrough(1)
	samples := func(b netmodel.Bucket) (out []int) {
		obs, err := q.ObservationsAt(context.Background(), b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			out = append(out, o.Samples)
		}
		return out
	}
	if got, want := samples(0), []int{100, 101, 102, 105, 200, 201}; !reflect.DeepEqual(got, want) {
		t.Errorf("bucket 0 served samples %v, want %v", got, want)
	}
	if got, want := samples(1), []int{103, 104}; !reflect.DeepEqual(got, want) {
		t.Errorf("bucket 1 served samples %v, want %v: a later append for bucket 0 wrote into its run", got, want)
	}
}

// TestQueuePartialRuns: an aggregate batch queues as one run per partial,
// a partial's cells regrouped even when the body interleaves them; a bucket
// serves its raw runs in arrival order and then its partials in (agent,
// epoch, seq) order, whatever order they arrived in; a partial redelivered
// while its bucket is pending is dropped, and one redelivered after the
// bucket was consumed is held as stale like any late record.
func TestQueuePartialRuns(t *testing.T) {
	cell := func(agent, samples int) ingest.AggCell {
		return ingest.AggCell{Agent: agent, Seq: 1, Bucket: 0, Prefix: netmodel.PrefixID(samples), Samples: samples, MeanRTT: 50, Clients: 1}
	}
	q := newIngestQueue(0, true, nil, nil)
	adm, err := q.PushCells([]ingest.AggCell{cell(2, 20), cell(1, 10), cell(2, 21)})
	if err != nil || adm != (cellAdmission{partials: 2, records: 3}) {
		t.Fatalf("first batch admitted as %+v, %v; want 2 partials, 3 records", adm, err)
	}
	raw := obsAt(0, 2)
	raw[0].Samples, raw[1].Samples = 1, 2
	if err := q.Push(raw); err != nil {
		t.Fatal(err)
	}
	adm, err = q.PushCells([]ingest.AggCell{cell(0, 5), cell(2, 20)})
	if err != nil || adm != (cellAdmission{partials: 1, deduped: 1, records: 1}) {
		t.Fatalf("batch with a redelivery admitted as %+v, %v; want 1 partial, 1 deduped, 1 record", adm, err)
	}
	if pending, _ := q.Depth(); pending != 6 {
		t.Fatalf("depth = %d, want 6 (the redelivery queued nothing)", pending)
	}
	q.SealThrough(0)
	obs, err := q.ObservationsAt(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, o := range obs {
		got = append(got, o.Samples)
	}
	if want := []int{1, 2, 5, 10, 20, 21}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket 0 served samples %v, want %v", got, want)
	}
	adm, err = q.PushCells([]ingest.AggCell{cell(2, 20)})
	if err != nil || adm.deduped != 0 || adm.records != 1 {
		t.Fatalf("redelivery after consumption admitted as %+v, %v; want it held, not deduplicated", adm, err)
	}
	q.SealThrough(1)
	if obs, _ := q.ObservationsAt(context.Background(), 1, nil); len(obs) != 1 || obs[0].Bucket != 0 {
		t.Fatalf("next read served %+v, want the one stale bucket-0 record", obs)
	}
}

// TestQueueManyPartialsOneBucket: one body can carry hundreds of thousands
// of one-cell partials for a bucket, in descending seq — every arrival lands
// before every queued partial. Queueing them, refusing their redelivery and
// serving them stays O(n log n), and the read is still PartialID order. (A
// sorted insert per partial took 19 s here on 2 vCPU; this takes 0.3 s.)
func TestQueueManyPartialsOneBucket(t *testing.T) {
	const n = 200_000
	cells := make([]ingest.AggCell, n)
	for i := range cells {
		cells[i] = ingest.AggCell{Agent: 1, Seq: int64(n - i), Prefix: netmodel.PrefixID(i), Samples: n - i, MeanRTT: 50, Clients: 1}
	}
	q := newIngestQueue(0, true, nil, nil)
	start := time.Now()
	if adm, err := q.PushCells(cells); err != nil || adm != (cellAdmission{partials: n, records: n}) {
		t.Fatalf("batch admitted as %+v, %v; want %d partials and records", adm, err, n)
	}
	if adm, err := q.PushCells(cells); err != nil || adm != (cellAdmission{deduped: n}) {
		t.Fatalf("redelivery admitted as %+v, %v; want %d deduped", adm, err, n)
	}
	q.SealThrough(0)
	obs, err := q.ObservationsAt(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("queueing and serving %d partials took %v: quadratic in the partial count", n, elapsed)
	}
	if len(obs) != n {
		t.Fatalf("served %d records, want %d", len(obs), n)
	}
	for i, o := range obs {
		if o.Samples != i+1 {
			t.Fatalf("record %d is seq %d's, want seq %d's: not PartialID order", i, o.Samples, i+1)
		}
	}
}
