package ingest

import (
	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// AppendCheckpoint encodes the quarantine's books: the per-reason counts
// and the ring of recent rejects with its cursor. The duplicate stamps
// are not encoded: they only ever compare records of one bucket, and a
// checkpoint is cut between buckets.
func (q *Quarantine) AppendCheckpoint(e *ckpt.Encoder) {
	for _, n := range q.counts {
		e.Varint(n)
	}
	e.Len(len(q.recent))
	for i := range q.recent {
		r := &q.recent[i]
		o := &r.Obs
		e.Int(int(o.Prefix))
		e.Int(int(o.Cloud))
		e.Int(int(o.Device))
		e.Int(int(o.Bucket))
		e.Int(o.Samples)
		e.F64(o.MeanRTT)
		e.Int(o.Clients)
		e.Int(int(r.Reason))
		e.Int(int(r.At))
		e.String(r.Line)
	}
	e.Len(q.next)
}

// RestoreCheckpoint replaces the books with what AppendCheckpoint wrote,
// and starts the duplicate stamps afresh for the next bucket filtered.
func (q *Quarantine) RestoreCheckpoint(d *ckpt.Decoder) {
	for i := range q.counts {
		q.counts[i] = d.Varint()
		if q.counts[i] < 0 {
			d.Failf("negative quarantine count")
		}
	}
	q.recent = make([]Rejected, d.Bound(recentCap))
	for i := range q.recent {
		r := &q.recent[i]
		r.Obs = trace.Observation{
			Prefix:  netmodel.PrefixID(d.Int()),
			Cloud:   netmodel.CloudID(d.Int()),
			Device:  netmodel.DeviceClass(d.Int()),
			Bucket:  netmodel.Bucket(d.Int()),
			Samples: d.Int(),
			MeanRTT: d.F64(),
			Clients: d.Int(),
		}
		r.Reason = Reason(d.Range(0, int(numReasons)))
		r.At = netmodel.Bucket(d.Int())
		if r.Line = d.String(); len(r.Line) > maxRejectedLine {
			d.Failf("rejected line of %d bytes", len(r.Line))
		}
	}
	q.next = d.Bound(recentCap - 1)
	if len(q.recent) < recentCap && q.next != len(q.recent) {
		d.Failf("recent cursor %d over %d rejects", q.next, len(q.recent))
	}
	q.stamps, q.epoch, q.epochBucket = nil, 0, 0
}
