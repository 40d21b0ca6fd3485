package wal

import (
	"sort"

	"blameit/internal/netmodel"
)

// Horizon is the settle rule, the one place that decides when a journaled
// input has been overtaken by later history. It holds one kind of settling
// event in log order — bucket reads for ingest batches, flushes for
// aggregate batches — and answers: did an event journaled after position
// p reach bucket b? A record is settled exactly then:
//
//   - An observation pushed after p reads sat either in the stale hold
//     (its bucket already consumed), which the very next read serves, or
//     pending under its bucket, which the first read at or past that
//     bucket serves (equal) or discards (the read jumped over it: warm-up
//     sampling). Reads only move forward, so both cases reduce to "a read
//     followed, and the reads have reached the bucket".
//   - An aggregate cell accepted after p flushes left the buffer with the
//     first later flush through its bucket or beyond.
//
// Recovery re-queues what its whole log has not settled; compaction drops
// a batch only when the events already in fsynced sealed segments settle
// every record in it; the tests project a log through the same call.
//
// Only the suffix maxima of the event sequence are kept: an event is
// forgotten once a later one reaches at least as far, since every question
// it could answer the later one answers too. Reads are strictly increasing,
// so their horizon is a single step; flushes can step back (late cells
// flush a low bucket after a high one), and keep a few.
type Horizon struct {
	n     int // events seen
	steps []horizonStep
}

// horizonStep is event number ord (0-based) reaching bucket b. Within a
// Horizon, ord increases and b strictly decreases along steps.
type horizonStep struct {
	ord int
	b   netmodel.Bucket
}

// Len returns how many events the horizon has seen — the position the
// next journaled record would sit after.
func (h *Horizon) Len() int { return h.n }

func (h *Horizon) add(b netmodel.Bucket) {
	for len(h.steps) > 0 && h.steps[len(h.steps)-1].b <= b {
		h.steps = h.steps[:len(h.steps)-1]
	}
	h.steps = append(h.steps, horizonStep{ord: h.n, b: b})
	h.n++
}

// Reached reports whether some event after the first `after` of them
// reached bucket b or beyond.
func (h *Horizon) Reached(after int, b netmodel.Bucket) bool {
	i := sort.Search(len(h.steps), func(i int) bool { return h.steps[i].ord >= after })
	return i < len(h.steps) && h.steps[i].b >= b
}

func (h *Horizon) clone() Horizon {
	return Horizon{n: h.n, steps: append([]horizonStep(nil), h.steps...)}
}
