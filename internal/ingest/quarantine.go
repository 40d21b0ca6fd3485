package ingest

import (
	"errors"
	"fmt"
	"math"

	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// TransientError marks a source error as retryable: the same read may
// succeed if reissued (a flaky collector, a storage timeout). The pipeline
// retries transient reads a bounded number of times before declaring the
// bucket dark; any other error is treated as fatal and propagated.
type TransientError struct{ Err error }

// Error returns the wrapped error's message.
func (e *TransientError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether any error in err's chain is a TransientError.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// Reason classifies why a record was quarantined.
type Reason int

const (
	// ReasonMalformed is a trace line that did not decode as a record.
	ReasonMalformed Reason = iota
	// ReasonCorrupt is a decoded record with impossible field values
	// (NaN/Inf/negative RTT, negative counts, unknown prefix, cloud or
	// device class).
	ReasonCorrupt
	// ReasonLate is a record whose bucket does not match the bucket being
	// read — delivered out of its collection window.
	ReasonLate
	// ReasonDuplicate is a second record for a (prefix, cloud, device)
	// already seen in the same bucket.
	ReasonDuplicate
	numReasons
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonMalformed:
		return "malformed"
	case ReasonCorrupt:
		return "corrupt"
	case ReasonLate:
		return "late"
	case ReasonDuplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Rejected is one quarantined record, kept for operator inspection.
type Rejected struct {
	Obs    trace.Observation
	Reason Reason
	// At is the bucket being read when the record was rejected.
	At netmodel.Bucket
	// Line holds (a prefix of) the raw input for malformed records.
	Line string
}

// recentCap bounds the ring of retained rejected records.
const recentCap = 32

// maxRejectedLine bounds how much of a malformed raw line is retained.
const maxRejectedLine = 160

// Quarantine is the counted, inspectable bin for records the ingestion
// path refuses: instead of poisoning quartet aggregates, corrupt, late,
// duplicate, and undecodable records are diverted here. Counts are
// per-reason; the most recent rejections are retained for inspection.
// Metrics (ingest.quarantine.<reason>) register lazily on first rejection,
// so a clean run's metric snapshot is indistinguishable from one taken
// before this layer existed.
//
// Like the rest of the ingestion path, a Quarantine is driven by one
// goroutine at a time.
type Quarantine struct {
	numPrefixes netmodel.PrefixID
	numClouds   int

	counts [numReasons]int64
	recent []Rejected
	next   int

	// stamps dedupes (prefix, cloud, device) within one bucket: a record's
	// slot holds the epoch of the last bucket that kept one like it, and
	// each bucket Filter moves to gets a new epoch, so nothing is cleared
	// per bucket. Epoch 0 means no bucket yet. The array (0.2 MB at
	// SmallScale, 4.5 MB at LargeScale) is allocated by the first Filter,
	// so a quarantine that only takes rejected lines never holds one.
	stamps      []uint32
	epoch       uint32
	epochBucket netmodel.Bucket

	reg     *metrics.Registry
	mCounts [numReasons]*metrics.Counter
}

// NewQuarantine creates a quarantine that validates records against a
// world with the given prefix and cloud counts (records referencing
// entities outside those ranges, or a device class outside
// [0, netmodel.NumDeviceClasses), are corrupt).
func NewQuarantine(numPrefixes netmodel.PrefixID, numClouds int) *Quarantine {
	return &Quarantine{numPrefixes: numPrefixes, numClouds: numClouds}
}

// SetMetrics attaches a registry. Counters are created lazily per reason
// on the first rejection, never eagerly — a faultless run registers
// nothing.
func (q *Quarantine) SetMetrics(reg *metrics.Registry) { q.reg = reg }

func (q *Quarantine) add(r Rejected) {
	q.counts[r.Reason]++
	if q.mCounts[r.Reason] == nil && q.reg != nil {
		q.mCounts[r.Reason] = q.reg.Counter("ingest.quarantine." + r.Reason.String())
	}
	q.mCounts[r.Reason].Inc()
	if len(q.recent) < recentCap {
		q.recent = append(q.recent, r)
	} else {
		q.recent[q.next] = r
	}
	q.next = (q.next + 1) % recentCap
}

// Reject quarantines one decoded record.
func (q *Quarantine) Reject(o trace.Observation, reason Reason, at netmodel.Bucket) {
	q.add(Rejected{Obs: o, Reason: reason, At: at})
}

// RejectLine quarantines one undecodable raw input line. Only its first
// maxRejectedLine bytes are copied, so a rejected line of any length pins
// no more than that.
func (q *Quarantine) RejectLine(line []byte, at netmodel.Bucket) {
	q.add(Rejected{Reason: ReasonMalformed, At: at, Line: string(line[:min(len(line), maxRejectedLine)])})
}

// corrupt reports whether a record carries values no collector can emit.
func (q *Quarantine) corrupt(o trace.Observation) bool {
	return math.IsNaN(o.MeanRTT) || math.IsInf(o.MeanRTT, 0) || o.MeanRTT < 0 ||
		o.Samples < 0 || o.Clients < 0 ||
		o.Prefix < 0 || o.Prefix >= q.numPrefixes ||
		o.Cloud < 0 || netmodel.CloudID(q.numClouds) <= o.Cloud ||
		o.Device < 0 || netmodel.DeviceClass(netmodel.NumDeviceClasses) <= o.Device
}

// slot is the stamp index of a record that is not corrupt.
func (q *Quarantine) slot(o trace.Observation) int {
	return (int(o.Prefix)*q.numClouds+int(o.Cloud))*netmodel.NumDeviceClasses + int(o.Device)
}

// Filter validates bucket b's records in place, quarantining the rejects
// and returning the surviving records (compacted, order preserved).
// Checks run in order late → corrupt → duplicate, so each reject is
// counted under exactly one reason. Buckets must be filtered in
// non-decreasing order (the ObservationSource contract).
func (q *Quarantine) Filter(b netmodel.Bucket, obs []trace.Observation) []trace.Observation {
	if q.stamps == nil {
		q.stamps = make([]uint32, int(q.numPrefixes)*q.numClouds*netmodel.NumDeviceClasses)
	}
	if q.epoch == 0 || b != q.epochBucket {
		if q.epoch == math.MaxUint32 {
			clear(q.stamps)
			q.epoch = 0
		}
		q.epoch++
		q.epochBucket = b
	}
	kept := obs[:0]
	for _, o := range obs {
		switch {
		case o.Bucket != b:
			q.Reject(o, ReasonLate, b)
		case q.corrupt(o):
			q.Reject(o, ReasonCorrupt, b)
		case q.stamps[q.slot(o)] == q.epoch:
			q.Reject(o, ReasonDuplicate, b)
		default:
			q.stamps[q.slot(o)] = q.epoch
			kept = append(kept, o)
		}
	}
	return kept
}

// Count returns the records quarantined under one reason.
func (q *Quarantine) Count(r Reason) int64 { return q.counts[r] }

// Total returns all quarantined records.
func (q *Quarantine) Total() int64 {
	var t int64
	for _, n := range q.counts {
		t += n
	}
	return t
}

// Recent returns the most recently quarantined records, oldest first (at
// most recentCap entries).
func (q *Quarantine) Recent() []Rejected {
	out := make([]Rejected, 0, len(q.recent))
	if len(q.recent) == recentCap {
		out = append(out, q.recent[q.next:]...)
		out = append(out, q.recent[:q.next]...)
		return out
	}
	return append(out, q.recent...)
}

// String summarizes the per-reason counts.
func (q *Quarantine) String() string {
	return fmt.Sprintf("malformed=%d corrupt=%d late=%d duplicate=%d",
		q.counts[ReasonMalformed], q.counts[ReasonCorrupt], q.counts[ReasonLate], q.counts[ReasonDuplicate])
}
