// Package metrics is the reproduction's dependency-free instrumentation
// layer: a concurrency-safe registry of counters, gauges, and fixed-bucket
// histograms with atomic fast paths and snapshot-on-read semantics.
//
// The production BlameIt runs as a monitored Azure service (Fig. 7 of the
// paper); job latencies, probe budgets, and blame-category mixes are
// operator-facing signals. This package gives the pipeline the same
// per-stage accounting without pulling in an external metrics dependency.
//
// Handles are nil-safe: every method on a nil *Counter, *Gauge, or
// *Histogram is a no-op, and a nil *Registry hands out nil handles. An
// uninstrumented component therefore pays one nil check per event and
// callers never branch on whether metrics are enabled.
//
// Snapshot returns all metric values with deterministic ordering (sorted by
// name); WriteText and WriteJSON render it for operators and machines
// respectively. Counter and gauge values are bit-deterministic for a fixed
// workload; wall-time histograms (the *_ms families) necessarily vary from
// run to run.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins integer metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n exceeds the current value — a
// high-watermark gauge (e.g. the widest shard fan-out seen). No-op on a nil
// receiver.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds, with an implicit +Inf overflow bucket, and tracks the
// observation count and sum. All updates are atomic; Observe takes one
// branchless scan over the (small, fixed) bound list plus two atomic adds.
type Histogram struct {
	bounds []float64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	// nonfinite counts NaN/±Inf observations. They are kept out of the
	// buckets and the sum: NaN compares false against every bound (it would
	// land in the overflow bucket by accident, not by meaning) and a single
	// NaN or Inf added to sum is permanent — one poisoned observation would
	// make every later snapshot unmarshalable (encoding/json rejects
	// non-finite numbers) long after the bad value was observed.
	nonfinite atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Non-finite values are diverted to the
// NonFinite counter. No-op on a nil receiver.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		h.nonfinite.Add(1)
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x: bucket "le bound"
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// NonFinite returns how many NaN/±Inf observations were rejected (0 on a
// nil receiver).
func (h *Histogram) NonFinite() int64 {
	if h == nil {
		return 0
	}
	return h.nonfinite.Load()
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; handle lookups take a mutex, so callers should fetch
// handles once (at construction) and hold them, keeping the per-event fast
// path a single atomic operation.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls reuse the existing buckets). A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// NamedValue is one counter or gauge reading.
type NamedValue struct {
	Name  string
	Value int64
}

// HistogramValue is one histogram reading. Counts[i] is the number of
// observations <= Bounds[i]; the final entry of Counts is the +Inf overflow
// bucket.
type HistogramValue struct {
	Name   string
	Count  int64
	Sum    float64
	Bounds []float64
	Counts []int64
	// NonFinite is the number of NaN/±Inf observations rejected from the
	// buckets and sum.
	NonFinite int64
}

// Snapshot is a point-in-time reading of a registry, each section sorted by
// metric name so rendering order is deterministic.
type Snapshot struct {
	Counters   []NamedValue
	Gauges     []NamedValue
	Histograms []HistogramValue
}

// Snapshot reads every metric. Values are read atomically per metric (the
// snapshot is not a cross-metric atomic cut, which operator-facing
// monitoring does not need). A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		hv := HistogramValue{
			Name:      name,
			Count:     h.Count(),
			Sum:       h.Sum(),
			Bounds:    append([]float64(nil), h.bounds...),
			Counts:    make([]int64, len(h.counts)),
			NonFinite: h.NonFinite(),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the snapshot value of a counter and whether it exists.
func (s Snapshot) Counter(name string) (int64, bool) {
	for _, v := range s.Counters {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// Gauge returns the snapshot value of a gauge and whether it exists.
func (s Snapshot) Gauge(name string) (int64, bool) {
	for _, v := range s.Gauges {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// Histogram returns the snapshot of a histogram and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, v := range s.Histograms {
		if v.Name == name {
			return v, true
		}
	}
	return HistogramValue{}, false
}

// WriteText renders the snapshot as sorted "name value" lines grouped by
// metric kind.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, v := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter   %-44s %d\n", v.Name, v.Value); err != nil {
			return err
		}
	}
	for _, v := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge     %-44s %d\n", v.Name, v.Value); err != nil {
			return err
		}
	}
	for _, v := range s.Histograms {
		mean := 0.0
		if v.Count > 0 {
			mean = v.Sum / float64(v.Count)
		}
		// nonfinite is appended only when observations were rejected, so
		// clean-run text output is byte-identical to before the counter
		// existed (golden reports compare this rendering).
		if v.NonFinite > 0 {
			if _, err := fmt.Fprintf(w, "histogram %-44s count=%d sum=%.3f mean=%.3f nonfinite=%d\n", v.Name, v.Count, v.Sum, mean, v.NonFinite); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "histogram %-44s count=%d sum=%.3f mean=%.3f\n", v.Name, v.Count, v.Sum, mean); err != nil {
			return err
		}
	}
	return nil
}

// jsonHistogram is the JSON shape of one histogram. NonFinite is omitted
// when zero so clean-run snapshots are byte-identical to the pre-counter
// encoding.
type jsonHistogram struct {
	Count     int64     `json:"count"`
	Sum       float64   `json:"sum"`
	Bounds    []float64 `json:"bounds"`
	Counts    []int64   `json:"counts"`
	NonFinite int64     `json:"nonfinite,omitempty"`
}

// MarshalJSON renders the snapshot as a JSON object with "counters",
// "gauges", and "histograms" sections. Sections are maps, which
// encoding/json marshals with sorted keys, so the byte output is
// deterministic for deterministic values.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	counters := make(map[string]int64, len(s.Counters))
	for _, v := range s.Counters {
		counters[v.Name] = v.Value
	}
	gauges := make(map[string]int64, len(s.Gauges))
	for _, v := range s.Gauges {
		gauges[v.Name] = v.Value
	}
	hists := make(map[string]jsonHistogram, len(s.Histograms))
	for _, v := range s.Histograms {
		hists[v.Name] = jsonHistogram{Count: v.Count, Sum: v.Sum, Bounds: v.Bounds, Counts: v.Counts, NonFinite: v.NonFinite}
	}
	return json.Marshal(struct {
		Counters   map[string]int64         `json:"counters"`
		Gauges     map[string]int64         `json:"gauges"`
		Histograms map[string]jsonHistogram `json:"histograms"`
	}{counters, gauges, hists})
}

// WriteJSON renders the snapshot as indented JSON followed by a newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// defaultRegistry is the process-wide registry behind Default. It stays nil
// (metrics disabled) until EnableDefault, so libraries constructed without
// an explicit registry are uninstrumented unless the process opts in — the
// blameit-experiments CLI does, since its experiment runners construct
// environments internally.
var (
	defaultMu       sync.Mutex
	defaultRegistry *Registry
)

// Default returns the process-wide registry, or nil when EnableDefault has
// not been called.
func Default() *Registry {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	return defaultRegistry
}

// EnableDefault installs (and returns) the process-wide registry that
// components fall back to when no explicit registry is configured. Calling
// it again returns the same registry.
func EnableDefault() *Registry {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultRegistry == nil {
		defaultRegistry = NewRegistry()
	}
	return defaultRegistry
}

// MSBuckets is the shared bucket layout for wall-time histograms, in
// milliseconds.
var MSBuckets = []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}

// SizeBuckets is the shared bucket layout for size-ish histograms (window
// sizes, batch widths).
var SizeBuckets = []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000}
