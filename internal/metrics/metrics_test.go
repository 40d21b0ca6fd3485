package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.SetMax(3) // lower: must not regress
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7 after SetMax(3)", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge = %d, want 11", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, x := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(x)
	}
	s := r.Snapshot()
	hv, ok := s.Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Buckets are "le bound": {<=1: 0.5, 1}, {<=10: 5, 10}, {<=100: 99}, {+Inf: 1000}.
	want := []int64{2, 2, 1, 1}
	for i, n := range want {
		if hv.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d (%v)", i, hv.Counts[i], n, hv.Counts)
		}
	}
	if hv.Count != 6 {
		t.Errorf("count = %d, want 6", hv.Count)
	}
	if want := 0.5 + 1 + 5 + 10 + 99 + 1000; math.Abs(hv.Sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", hv.Sum, want)
	}
}

// TestNilSafety: a nil registry hands out nil handles and every operation
// is a silent no-op — the contract that lets instrumentation sites run
// unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", MSBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.SetMax(9)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from many
// goroutines and checks totals; run under -race this also proves the fast
// paths are data-race free.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h", []float64{0.5})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(id*perWorker + i))
				h.Observe(1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker-1 {
		t.Errorf("gauge high watermark = %d, want %d", got, workers*perWorker-1)
	}
	h := r.Histogram("h", nil)
	if h.Count() != workers*perWorker || h.Sum() != workers*perWorker {
		t.Errorf("histogram count=%d sum=%v, want %d", h.Count(), h.Sum(), workers*perWorker)
	}
}

// TestSnapshotDeterministicOrdering checks that snapshot sections are
// sorted by name and that JSON output is byte-identical across repeated
// snapshots of the same state.
func TestSnapshotDeterministicOrdering(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z.last", "a.first", "m.middle"} {
		r.Counter(name).Inc()
		r.Gauge("g." + name).Set(1)
		r.Histogram("h."+name, SizeBuckets).Observe(2)
	}
	s := r.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q", s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
	var b1, b2 bytes.Buffer
	if err := s.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("JSON snapshots of identical state differ")
	}
	// The JSON must parse back with all three sections present.
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(b1.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	for _, sec := range []string{"counters", "gauges", "histograms"} {
		if _, ok := decoded[sec]; !ok {
			t.Errorf("JSON missing %q section", sec)
		}
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.one").Add(4)
	r.Gauge("g.one").Set(2)
	r.Histogram("h.one", []float64{1}).Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counter", "c.one", "gauge", "g.one", "histogram", "h.one", "count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultRegistry(t *testing.T) {
	// Default is nil until enabled; EnableDefault is idempotent.
	if Default() != nil {
		t.Skip("default registry already enabled by another test")
	}
	r := EnableDefault()
	if r == nil || Default() != r || EnableDefault() != r {
		t.Fatal("EnableDefault must install one stable registry")
	}
}

func TestHistogramNonFinite(t *testing.T) {
	h := NewRegistry().Histogram("ms", []float64{1, 10})
	h.Observe(5)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Count() != 1 || h.Sum() != 5 {
		t.Fatalf("count=%d sum=%v, want 1/5 (non-finite must not touch buckets or sum)", h.Count(), h.Sum())
	}
	if h.NonFinite() != 3 {
		t.Fatalf("NonFinite = %d, want 3", h.NonFinite())
	}
	var nilH *Histogram
	nilH.Observe(math.NaN()) // nil-safety holds on the reject path too
	if nilH.NonFinite() != 0 {
		t.Fatal("nil histogram NonFinite must be 0")
	}
}

func TestSnapshotJSONSurvivesNaN(t *testing.T) {
	// A single NaN observation used to poison the CAS-accumulated sum
	// forever, making every later snapshot unmarshalable (encoding/json
	// rejects non-finite numbers). The nonfinite counter keeps the sum
	// finite, and clean histograms omit the field so their encoding is
	// byte-identical to the pre-counter shape.
	r := NewRegistry()
	r.Histogram("dirty", []float64{1}).Observe(math.NaN())
	r.Histogram("clean", []float64{1}).Observe(0.5)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot with NaN observation must still marshal: %v", err)
	}
	if !strings.Contains(string(b), `"nonfinite":1`) {
		t.Errorf("dirty histogram missing nonfinite field: %s", b)
	}
	if strings.Contains(string(b), `"clean":{"count":1,"sum":0.5,"bounds":[1],"counts":[1,0],"nonfinite"`) {
		t.Errorf("clean histogram must omit nonfinite: %s", b)
	}
}
