//go:build linux

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span that caused it (0 for a root); Window is the identifier the
// spans of one request share — the job window's last bucket.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Window int    `json:"window"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so the measured code is the same traced or not.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, window int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Window: window, Name: name, Start: now, End: now})
	return id
}

// end closes a span opened by start and returns its duration in ns (0 on
// a nil tracer).
func (t *tracer) end(id int) int64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return now - t.spans[id-1].Start
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time by id: its duration minus the
// part of its interval that its child spans cover. Overlapping children
// are counted once (the union of their intervals), and a child reaching
// outside its parent is clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]iv)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered int64
		cur := iv{-1, -1}
		for _, c := range ivs {
			if c.lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = c
			} else if c.hi > cur.hi {
				cur.hi = c.hi
			}
		}
		covered += cur.hi - cur.lo
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotals is a span name's self-time sum and count.
type spanTotals struct {
	selfNS int64
	n      int
}

// selfByName sums self time per span name over the spans keep accepts.
func selfByName(spans []span, keep func(span) bool) map[string]spanTotals {
	self := selfTimes(spans)
	out := make(map[string]spanTotals)
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		t := out[s.Name]
		t.selfNS += self[s.ID]
		t.n++
		out[s.Name] = t
	}
	return out
}

// writeSpans dumps the recorded spans as one JSON document.
func writeSpans(path, workload string, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
