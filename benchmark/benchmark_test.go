//go:build linux

package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two children overlapping on [30, 40): they cover [10, 60) once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A disjoint child, with a grandchild that must not be charged to
		// the root a second time.
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 90},
		{ID: 5, Parent: 4, Name: "d", Start: 75, End: 80},
		// A child that outlives its parent is clipped to the parent.
		{ID: 6, Parent: 1, Name: "e", Start: 95, End: 130},
		// A child entirely inside another child's cover adds nothing.
		{ID: 7, Parent: 1, Name: "f", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 20 + 5), // [10,60) + [70,90) + [95,100)
		2: 30, 3: 30,
		4: 15, 5: 5,
		6: 35, 7: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans, func(s span) bool { return s.Parent == 1 })
	if got := byName["a"]; got.selfNS != 30 || got.n != 1 {
		t.Errorf("selfByName[a] = %+v, want 30 ns over 1 span", got)
	}
	if _, ok := byName["root"]; ok {
		t.Error("selfByName kept a span its filter refused")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.start("x", 0, 0); id != 0 || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Error("nil tracer is not inert")
	}
}

// The trace is a function of the seed alone: the driver's correctness
// gate and every cross-run comparison rest on it.
func TestTraceIsAFunctionOfTheSeed(t *testing.T) {
	const buckets = 4
	digests := func(seed int64) (raw, fleet string) {
		wd, err := newWorld(seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := encodeRaw(wd, buckets)
		if err != nil {
			t.Fatal(err)
		}
		f, err := encodeFleet(wd, buckets)
		if err != nil {
			t.Fatal(err)
		}
		if r.records(0, buckets) == 0 || r.records(0, buckets) != f.records(0, buckets) {
			t.Fatalf("seed %d: %d raw records, %d fleet cells", seed, r.records(0, buckets), f.records(0, buckets))
		}
		if got := len(r.body(1)); got != r.off[2]-r.off[1] || got == 0 {
			t.Fatalf("bucket 1 body has %d bytes, index says %d", got, r.off[2]-r.off[1])
		}
		return r.sha256(), f.sha256()
	}
	raw1, fleet1 := digests(7)
	raw1again, fleet1again := digests(7)
	raw2, fleet2 := digests(8)
	if raw1 != raw1again || fleet1 != fleet1again {
		t.Error("the same seed encoded two different traces")
	}
	if raw1 == raw2 || fleet1 == fleet2 {
		t.Error("different seeds encoded the same trace")
	}
}

func TestTailPercentileWantsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 50},   // p90 would leave 1 beyond
		{99, 50},   // p90 leaves 9
		{100, 90},  // p90 leaves exactly 10
		{199, 90},  // p95 leaves 9
		{200, 95},  // p95 leaves 10
		{999, 95},  // p99 leaves 9
		{1000, 99}, // p99 leaves 10
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, c.n-rank(c.n, p))
		}
	}
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The spread -compare checks is the driver's: Python's
// statistics.quantiles(xs, n=4), first to third quartile.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of [1 2 4] = %v, %v; Python gives 1, 4", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 3, 5, 7, 11, 13, 17})
	if math.Abs(q1-3) > 1e-12 || math.Abs(q3-13) > 1e-12 {
		t.Errorf("quartiles of the first seven primes = %v, %v; Python gives 3, 13", q1, q3)
	}
}

// -compare passes two result sets that agree and fails one whose median
// moved, or whose spread grew, past a metric's bound.
func TestCompareHoldsResultSetsToTheBounds(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	write := func(name string, setup, rate func(i int) float64) string {
		path := filepath.Join(t.TempDir(), name)
		for _, wl := range workloads {
			for i := 0; i < 10; i++ {
				rec := record{Workload: wl.name, Seed: int64(i), Result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
					"setup_s":       {Value: setup(i), Unit: "s"},
					"records_per_s": {Value: rate(i), Unit: "1/s"},
				}}}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	steady := func(base float64) func(int) float64 {
		return func(i int) float64 { return base * (1 + 0.002*float64(i)) }
	}
	wide := func(i int) float64 { return 1000 * (1 + 0.05*float64(i)) }
	a := write("a.json", steady(1), steady(1000))
	for _, c := range []struct {
		name string
		b    string
		want bool
	}{
		{"the same again", write("same.json", steady(1), steady(1000)), true},
		{"a higher-is-better metric that rose", write("faster.json", steady(1), steady(1300)), true},
		{"a rate 15% down against a 10% bound", write("slower.json", steady(1), steady(850)), false},
		{"a set-up 30% up against a 25% bound", write("setup.json", steady(1.3), steady(1000)), false},
		{"a set-up spread over its bound, which is exempt", write("setupwide.json", func(i int) float64 { return wide(i) / 1000 }, steady(1000)), true},
		{"a rate spread over its bound", write("wide.json", steady(1), wide), false},
	} {
		var out bytes.Buffer
		got, err := compareFiles(&out, sp, a, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: compare passed = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
	if _, err := compareFiles(io.Discard, sp, a, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("comparing against a missing file did not fail")
	}
}
