package server

import (
	"bytes"
	"math"
	"slices"

	"blameit/internal/active"
	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/quartet"
	"blameit/internal/trace"
)

// appendState encodes a checkpoint's body: the pipeline's sections, then
// a section of the headers of the reports the log retains, oldest first,
// then the ingest queue's section, queue, as snapshot encoded it, and the
// sections' trailer. The reports' bytes stay in the reports family.
func appendState(e *ckpt.Encoder, pipe *pipeline.Pipeline, headers []storedReport, queue []byte) error {
	if err := pipe.AppendCheckpoint(e); err != nil {
		return err
	}
	e.Mark()
	e.Len(len(headers))
	for i := range headers {
		h := &headers[i]
		e.Varint(h.seq)
		e.Int(int(h.from))
		e.Int(int(h.to))
		e.Len(h.results)
		e.Len(h.tickets)
		active.AppendVerdicts(e, h.verdicts)
		hl := &h.health
		e.Len(int(hl.Source))
		e.Len(int(hl.Prober))
		for _, n := range []int64{hl.Quarantined, hl.SourceRetries, hl.DarkBuckets, hl.ProbeFailures, hl.ProbeExhausted} {
			e.Varint(n)
		}
		e.Int(hl.OpenCircuits)
	}
	e.Mark()
	e.Raw(queue)
	e.EndSections()
	return nil
}

// decodedState is a checkpoint's body as decodeState reads it, before the
// world is built: the pipeline's sections, the retained reports' headers —
// in increasing seq order and without their bytes — and the queue.
type decodedState struct {
	pipe    *pipeline.Decoded
	headers []storedReport
	queue   *ingestQueue
}

// decodeState reads what appendState wrote, needing no world, the
// pipeline's sections on up to workers goroutines.
func decodeState(body []byte, workers int) (*decodedState, error) {
	sections, err := ckpt.Sections(body, pipeline.CheckpointSections+2)
	if err != nil {
		return nil, err
	}
	st := &decodedState{queue: newIngestQueue(0, false)}
	if st.pipe, err = pipeline.DecodeCheckpoint(sections[:pipeline.CheckpointSections], workers); err != nil {
		return nil, err
	}
	if err := st.queue.restoreCheckpoint(sections[pipeline.CheckpointSections+1]); err != nil {
		return nil, err
	}
	d := ckpt.NewDecoder(sections[pipeline.CheckpointSections])
	st.headers = make([]storedReport, d.Len(14))
	for i := range st.headers {
		h := &st.headers[i]
		if h.seq = d.Varint(); h.seq < 0 || i > 0 && h.seq <= st.headers[i-1].seq {
			d.Failf("report seq %d out of order", h.seq)
		}
		h.from = netmodel.Bucket(d.Int())
		h.to = netmodel.Bucket(d.Int())
		h.results = d.Bound(math.MaxInt32)
		h.tickets = d.Bound(math.MaxInt32)
		h.verdicts = active.RestoreVerdicts(d)
		hl := &h.health
		hl.Source = pipeline.ComponentHealth(d.Bound(int(pipeline.Dark)))
		hl.Prober = pipeline.ComponentHealth(d.Bound(int(pipeline.Dark)))
		for _, n := range []*int64{&hl.Quarantined, &hl.SourceRetries, &hl.DarkBuckets, &hl.ProbeFailures, &hl.ProbeExhausted} {
			*n = d.Varint()
		}
		hl.OpenCircuits = d.Int()
		if d.Err() != nil {
			break
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// snapshot encodes what the queue holds and calls cut — the journal's Cut
// — in the same critical section: every batch is in the snapshot or
// journaled after the seam, none in both and none in neither. The
// snapshot is the frontier and the watermark, the stale records, and each
// pending bucket in order: its raw runs, then its aggregate's partials in
// PartialID order.
func (q *ingestQueue) snapshot(cut func() error) ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := cut(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	e := ckpt.NewEncoder(&buf)
	e.Int(int(q.frontier))
	e.Int(int(q.watermark))
	appendObservations(e, q.stale)
	buckets := make([]netmodel.Bucket, 0, len(q.pending))
	for b := range q.pending {
		buckets = append(buckets, b)
	}
	slices.Sort(buckets)
	e.Len(len(buckets))
	for _, b := range buckets {
		pb := q.pending[b]
		e.Int(int(b))
		appendObservations(e, pb.raw)
		var parts []*quartet.Partial
		if pb.agg != nil {
			parts = pb.agg.Partials()
		}
		e.Len(len(parts))
		for _, p := range parts {
			e.Int(p.ID.Agent)
			e.Int(p.ID.Epoch)
			e.Varint(p.ID.Seq)
			e.Len(len(p.Cells))
			for _, c := range p.Cells {
				e.Int(int(c.Key.Prefix))
				e.Int(int(c.Key.Cloud))
				e.Int(int(c.Key.Device))
				e.Int(c.Samples)
				e.F64(c.MeanRTT)
				e.Int(c.Clients)
			}
		}
	}
	_, _, err := e.Flush()
	return buf.Bytes(), err
}

// restoreCheckpoint reads what snapshot wrote into q, a queue that holds
// nothing and serves no one.
func (q *ingestQueue) restoreCheckpoint(section []byte) error {
	d := ckpt.NewDecoder(section)
	q.frontier = netmodel.Bucket(d.Int())
	q.watermark = netmodel.Bucket(d.Int())
	if q.stale = restoreObservations(d); slices.ContainsFunc(q.stale, func(o trace.Observation) bool { return o.Bucket >= q.frontier }) {
		d.Failf("a stale record at or past the frontier %d", q.frontier)
	}
	q.records = len(q.stale)
	prev := q.frontier - 1
	for n := d.Len(3); n > 0 && d.Err() == nil; n-- {
		b := netmodel.Bucket(d.Int())
		if b <= prev {
			d.Failf("pending bucket %d not after %d", b, prev)
			break
		}
		prev = b
		pb := &pendingBucket{raw: restoreObservations(d)}
		if slices.ContainsFunc(pb.raw, func(o trace.Observation) bool { return o.Bucket != b }) {
			d.Failf("a record of another bucket pending under %d", b)
		}
		pb.records = len(pb.raw)
		var last quartet.PartialID
		for k := d.Len(4); k > 0 && d.Err() == nil; k-- {
			p := &quartet.Partial{ID: quartet.PartialID{Agent: d.Int(), Epoch: d.Int(), Seq: d.Varint()}, Bucket: b}
			if pb.agg == nil {
				pb.agg = quartet.NewAggregate(b)
			} else if !last.Less(p.ID) {
				d.Failf("partial %+v not after %+v", p.ID, last)
			}
			last = p.ID
			p.Cells = make([]quartet.Cell, d.Len(12))
			for i := range p.Cells {
				c := &p.Cells[i]
				c.Key = quartet.Key{Prefix: netmodel.PrefixID(d.Int()), Cloud: netmodel.CloudID(d.Int()), Device: netmodel.DeviceClass(d.Int())}
				c.Samples = d.Int()
				c.MeanRTT = d.F64()
				c.Clients = d.Int()
			}
			pb.agg.Add(p)
			pb.records += len(p.Cells)
		}
		if d.Err() == nil && pb.records == 0 {
			d.Failf("pending bucket %d holds nothing", b)
		}
		q.pending[b] = pb
		q.records += pb.records
	}
	return d.Done()
}

func appendObservations(e *ckpt.Encoder, obs []trace.Observation) {
	e.Len(len(obs))
	for i := range obs {
		o := &obs[i]
		e.Int(int(o.Prefix))
		e.Int(int(o.Cloud))
		e.Int(int(o.Device))
		e.Int(int(o.Bucket))
		e.Int(o.Samples)
		e.F64(o.MeanRTT)
		e.Int(o.Clients)
	}
}

func restoreObservations(d *ckpt.Decoder) []trace.Observation {
	obs := make([]trace.Observation, d.Len(14))
	for i := range obs {
		o := &obs[i]
		o.Prefix = netmodel.PrefixID(d.Int())
		o.Cloud = netmodel.CloudID(d.Int())
		o.Device = netmodel.DeviceClass(d.Int())
		o.Bucket = netmodel.Bucket(d.Int())
		o.Samples = d.Int()
		o.MeanRTT = d.F64()
		o.Clients = d.Int()
	}
	return obs
}

// adopt takes what restoreCheckpoint read into held as q's own.
func (q *ingestQueue) adopt(held *ingestQueue) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.frontier, q.watermark = held.frontier, held.watermark
	q.stale, q.pending, q.records = held.stale, held.pending, held.records
}
