package wal

import "blameit/internal/netmodel"

// Horizon is the settle rule, the one place that decides when a journaled
// batch — raw observations or aggregate cells, they queue alike — has been
// overtaken by later history. It follows the bucket reads in log order and
// answers: did a read journaled after position p reach bucket b? A record
// is settled exactly then: pushed after p reads, it sat either in the stale
// hold (its bucket already consumed), which the very next read serves, or
// pending under its bucket, which the first read at or past that bucket
// serves (equal) or discards (the read jumped over it: warm-up sampling).
//
// Recovery re-queues what its whole log has not settled; compaction
// unlinks an accepted segment only when the reads in the fsynced history
// settle every batch in it; the tests project a log through the same call.
//
// Reads only move forward, so the latest read is also the farthest and is
// all that is kept.
type Horizon struct {
	n       int             // the position the next read takes
	reached int             // the position just past the latest read
	last    netmodel.Bucket // the latest read's bucket
}

// Len returns the position the next journaled record would sit after: the
// reads seen, plus any positions a truncated history lost.
func (h *Horizon) Len() int { return h.n }

func (h *Horizon) add(b netmodel.Bucket) {
	h.n++
	h.reached = h.n
	h.last = b
}

// skipTo moves the next read's position up to p without a read: the
// positions below it belong to reads a truncated history lost, which the
// batches recorded there still name.
func (h *Horizon) skipTo(p int) { h.n = max(h.n, p) }

// Reached reports whether some read after the first `after` positions
// reached bucket b or beyond.
func (h *Horizon) Reached(after int, b netmodel.Bucket) bool {
	return after < h.reached && h.last >= b
}
