package ingest

import (
	"context"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// ScanCost counts, over any source, what §6.1's ingestion layout costs the
// periodic job. The analytics cluster lands each record in one of a fixed
// number of storage buckets created per ingestion window (an hour in
// production), unordered within the window, so a job that wants one
// 5-minute bucket scans every storage bucket of the window and filters
// through every record the window has received so far. Both figures are
// closed-form in what the job reads, so nothing is stored: the decorator
// passes the source's records through untouched and keeps two counters.
// Shrinking the window — the paper's "finer buckets" follow-up — cuts the
// scanned records proportionally.
type ScanCost struct {
	src              ObservationSource
	bucketsPerWindow int
	windowLen        netmodel.Bucket
	window           netmodel.Bucket // ingestion window of the latest read
	windowRecords    int             // records that window has received so far
	buckets, records int
}

// NewScanCost counts src's reads against an ingestion layout of
// bucketsPerWindow storage buckets per window of windowLen 5-minute buckets.
func NewScanCost(src ObservationSource, bucketsPerWindow int, windowLen netmodel.Bucket) *ScanCost {
	if bucketsPerWindow < 1 || windowLen < 1 {
		panic("ingest: ScanCost needs a positive storage-bucket count and window length")
	}
	return &ScanCost{src: src, bucketsPerWindow: bucketsPerWindow, windowLen: windowLen}
}

// ObservationsAt reads bucket b from the wrapped source and charges the
// read: the window's storage buckets, and every record the window holds once
// b's have landed in it. A failed read scans nothing.
func (s *ScanCost) ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	had := len(buf)
	buf, err := s.src.ObservationsAt(ctx, b, buf)
	if err != nil {
		return buf, err
	}
	if w := b / s.windowLen; w != s.window {
		s.window, s.windowRecords = w, 0
	}
	s.windowRecords += len(buf) - had
	s.buckets += s.bucketsPerWindow
	s.records += s.windowRecords
	return buf, nil
}

// ScannedBuckets reports how many storage buckets the reads so far scanned.
func (s *ScanCost) ScannedBuckets() int { return s.buckets }

// ScannedRecords reports how many records the reads so far examined,
// including the ones outside the requested bucket — the real cost of the
// coarse layout.
func (s *ScanCost) ScannedRecords() int { return s.records }
