// Package ingest is the data plane between telemetry collection and the
// BlameIt pipeline: the ObservationSource seam the pipeline reads passive
// quartet observations through, the JSONL wire codecs of the daemon's two
// POST routes, and the quarantine every read is validated by.
//
// The seam has one adapter here. SourceFunc lifts any func(bucket, buf)
// that cannot fail — a simulator's ObservationsAt, for one — into a
// source. The other implementations live with the state they read: the
// daemon's ingest queue (internal/server), the fleet collector
// (internal/fleet), the chaos injector (internal/chaos). ScanCost decorates
// any of them with §6.1's scan accounting. A recorded trace reaches the
// system the way live telemetry does, as request bodies for DecodeBatch.
//
// Sources take a context.Context because real backends block on I/O; the
// in-memory implementations only check for cancellation.
package ingest

import (
	"context"

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
