// Package ingest is the data plane between telemetry collection and the
// BlameIt pipeline: the ObservationSource seam the pipeline reads passive
// quartet observations through, the JSONL wire codecs of the daemon's two
// POST routes, and the quarantine every read is validated by.
//
// The seam has one adapter and one reader here. SourceFunc lifts any
// func(bucket, buf) that cannot fail — a simulator's ObservationsAt, for
// one — into a source. StreamSource replays
// a recorded trace (blameit-tracegen output) bucket by bucket without
// loading it whole. The other implementations live with the state they
// read: the daemon's ingest queue (internal/server), the fleet collector
// (internal/fleet), the chaos injector (internal/chaos). ScanCost decorates
// any of them with §6.1's scan accounting.
//
// Sources take a context.Context because real backends block on I/O; the
// in-memory implementations only check for cancellation.
package ingest

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// ObservationSource yields one bucket's passive quartet observations.
//
// The contract every implementation follows: ObservationsAt appends bucket
// b's observations to buf (which may be nil) and returns the extended
// slice, in a deterministic order that is identical across implementations
// fed from the same telemetry — that equality is what makes trace replay
// reproduce a live run byte for byte. Buckets must be requested in
// non-decreasing order; gaps are allowed (the pipeline's warmup subsamples
// buckets) and streaming sources discard the skipped records.
type ObservationSource interface {
	ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error)
}

// SourceFunc adapts an in-memory generator to ObservationSource, as
// http.HandlerFunc adapts a function to a handler: f appends bucket b's
// observations to buf and cannot fail, so the only error is the context's.
// ingest.SourceFunc(s.ObservationsAt) is the live simulator as a source.
type SourceFunc func(b netmodel.Bucket, buf []trace.Observation) []trace.Observation

// ObservationsAt calls f unless ctx is already done.
func (f SourceFunc) ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	if err := ctx.Err(); err != nil {
		return buf, err
	}
	return f(b, buf), nil
}

// StreamSource replays a recorded JSONL observation trace (the output of
// blameit-tracegen, or WriteJSONL) as an observation source. Records are
// decoded line by line — a month-long trace never resides in memory — and
// must be ordered by non-decreasing bucket, which every writer in this repo
// guarantees. Records for buckets the caller skips over (warmup
// subsampling) are discarded.
//
// By default the source is strict: a line that fails to decode or a record
// that regresses in bucket order aborts the read with a positioned error
// (replay equivalence demands a perfect trace). SetQuarantine switches it
// to salvage mode: bad lines are diverted to the quarantine and decoding
// continues on the next line, so a damaged trace degrades instead of
// aborting — the caller inspects the quarantine afterwards.
type StreamSource struct {
	r *bufio.Reader
	// pending holds the first record of a future bucket, by value: taking
	// the address of the decode loop's local forced a heap allocation on
	// every bucket boundary of a replay.
	pending    trace.Observation
	hasPending bool
	prev       netmodel.Bucket // highest bucket decoded so far
	records    int64
	offset     int64 // byte offset of the next unread line
	done       bool
	quar       *Quarantine
	long       []byte            // scratch for lines longer than the read buffer
	dec        trace.Observation // decode target, on the heap with s
}

// NewStreamSource creates a streaming source over r. The reader is buffered
// internally.
func NewStreamSource(r io.Reader) *StreamSource {
	return &StreamSource{r: bufio.NewReaderSize(r, 1<<20)}
}

// SetQuarantine switches the source from strict to salvage mode: lines
// that fail to decode and records that regress in bucket order are
// quarantined (ReasonMalformed / ReasonLate) instead of aborting the read.
func (s *StreamSource) SetQuarantine(q *Quarantine) { s.quar = q }

// Records returns how many trace records have been consumed so far,
// including records discarded for skipped buckets.
func (s *StreamSource) Records() int64 { return s.records }

// Exhausted reports whether the underlying trace has been fully read.
func (s *StreamSource) Exhausted() bool { return s.done && !s.hasPending }

// LastBucket returns the highest bucket decoded so far. Combined with
// Exhausted, it detects truncated traces: a fully-read trace whose last
// bucket falls short of the run's horizon ended early.
func (s *StreamSource) LastBucket() netmodel.Bucket { return s.prev }

// readLine returns the next line as a view into the read buffer (valid
// until the next readLine call), falling back to an owned scratch buffer
// for the rare line longer than the buffer. Unlike ReadBytes, the common
// case copies nothing.
func (s *StreamSource) readLine() ([]byte, error) {
	line, err := s.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	s.long = append(s.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = s.r.ReadSlice('\n')
		s.long = append(s.long, line...)
	}
	return s.long, err
}

// next decodes the next record, honoring the strict/salvage mode split.
// It returns ok=false when the trace is exhausted (s.done) or, in strict
// mode, on a positioned decode error. Lines decode as a request body's do
// (obsShape.decode).
func (s *StreamSource) next(at netmodel.Bucket) (o trace.Observation, ok bool, err error) {
	for {
		line, rerr := s.readLine()
		lineStart := s.offset
		s.offset += int64(len(line))
		if isBlank(line) {
			if rerr != nil {
				s.done = true
				return o, false, nil
			}
			continue
		}
		if derr := obsShape.decode(line, &s.dec); derr != nil {
			if s.quar == nil {
				return o, false, fmt.Errorf("ingest: decoding trace record %d (byte offset %d): %w", s.records, lineStart, derr)
			}
			s.quar.RejectLine(line, at)
			if rerr != nil {
				s.done = true
				return o, false, nil
			}
			continue
		}
		o = s.dec
		s.records++
		if o.Bucket < s.prev {
			if s.quar == nil {
				return o, false, fmt.Errorf("ingest: trace record %d regresses from bucket %d to %d; traces must be bucket-ordered", s.records-1, s.prev, o.Bucket)
			}
			s.quar.Reject(o, ReasonLate, at)
			if rerr != nil {
				s.done = true
				return o, false, nil
			}
			continue
		}
		s.prev = o.Bucket
		if rerr != nil {
			s.done = true
		}
		return o, true, nil
	}
}

// ObservationsAt returns the records of bucket b, reading forward through
// the trace. Requests must not go backwards; in strict mode a trace whose
// records regress in bucket order is rejected (it would silently
// mis-assign observations), in salvage mode regressing records are
// quarantined.
func (s *StreamSource) ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	if err := ctx.Err(); err != nil {
		return buf, err
	}
	if s.hasPending {
		switch {
		case s.pending.Bucket > b:
			return buf, nil
		case s.pending.Bucket == b:
			buf = append(buf, s.pending)
			s.hasPending = false
		default: // pending belongs to a skipped bucket
			s.hasPending = false
		}
	}
	for !s.done {
		o, ok, err := s.next(b)
		if err != nil {
			return buf, err
		}
		if !ok {
			break
		}
		if o.Bucket < b {
			continue // skipped bucket: discard
		}
		if o.Bucket == b {
			buf = append(buf, o)
			continue
		}
		s.pending = o
		s.hasPending = true
		break
	}
	return buf, nil
}
