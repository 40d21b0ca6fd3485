package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestP2QuantileAccuracy checks the P² estimate tracks the exact empirical
// quantile within a few percent on well-behaved distributions.
func TestP2QuantileAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dists := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return r.Float64() * 100 }},
		{"normal", func() float64 { return 50 + 10*r.NormFloat64() }},
		{"lognormal", func() float64 { return LogNormal(r, 3, 0.8) }},
		{"pareto", func() float64 { return BoundedPareto(r, 1.2, 1, 1000) }},
	}
	for _, d := range dists {
		for _, q := range []float64{0.10, 0.50, 0.90, 0.99} {
			p := NewP2Quantile(q)
			xs := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				x := d.draw()
				xs = append(xs, x)
				p.Add(x)
			}
			exact := Quantile(xs, q)
			got := p.Value()
			// Tolerance in quantile space: the estimate must sit between
			// nearby exact quantiles.
			loQ, hiQ := math.Max(0, q-0.03), math.Min(1, q+0.03)
			lo, hi := Quantile(xs, loQ), Quantile(xs, hiQ)
			if got < lo || got > hi {
				t.Errorf("%s q=%.2f: P² %.3f outside [%.3f, %.3f] (exact %.3f)", d.name, q, got, lo, hi, exact)
			}
		}
	}
}

// TestP2QuantileSmallSamples pins exactness below the five-marker
// threshold and sane behavior on tiny streams.
func TestP2QuantileSmallSamples(t *testing.T) {
	p := NewP2Quantile(0.5)
	if p.Value() != 0 || p.N() != 0 {
		t.Fatalf("empty estimator: value %v n %d", p.Value(), p.N())
	}
	p.Add(7)
	if p.Value() != 7 {
		t.Fatalf("n=1 median %v, want 7", p.Value())
	}
	p.Add(1)
	p.Add(3)
	if got, want := p.Value(), 3.0; got != want {
		t.Fatalf("n=3 median %v, want %v", got, want)
	}
}

// TestP2QuantileIgnoresNonFinite: a NaN or Inf must not wedge the markers.
func TestP2QuantileIgnoresNonFinite(t *testing.T) {
	p := NewP2Quantile(0.5)
	for i := 0; i < 100; i++ {
		p.Add(float64(i))
		p.Add(math.NaN())
		p.Add(math.Inf(1))
	}
	if p.N() != 100 {
		t.Fatalf("n = %d, want 100 (non-finite must not count)", p.N())
	}
	v := p.Value()
	if math.IsNaN(v) || v < 30 || v > 70 {
		t.Fatalf("median of 0..99 with NaN/Inf noise = %v", v)
	}
}

// TestStreamingSummaryMatchesSummarize compares the bounded-memory summary
// with the exact one: count/mean/min/max exactly, quantiles within
// tolerance.
func TestStreamingSummaryMatchesSummarize(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := NewStreamingSummary()
	xs := make([]float64, 0, 30000)
	for i := 0; i < 30000; i++ {
		x := LogNormal(r, 4, 0.5)
		xs = append(xs, x)
		s.Add(x)
	}
	s.Add(math.NaN())
	s.Add(math.Inf(-1))
	exact := Summarize(xs)
	got := s.Summary()
	if got.N != exact.N || got.Min != exact.Min || got.Max != exact.Max {
		t.Fatalf("exact fields diverge: got %+v want %+v", got, exact)
	}
	if math.Abs(got.Mean-exact.Mean) > 1e-9*exact.Mean {
		t.Fatalf("mean %v, want %v", got.Mean, exact.Mean)
	}
	if s.NonFinite != 2 {
		t.Fatalf("NonFinite = %d, want 2", s.NonFinite)
	}
	for _, c := range []struct {
		name string
		got  float64
		q    float64
	}{{"p10", got.P10, 0.10}, {"p50", got.P50, 0.50}, {"p90", got.P90, 0.90}, {"p99", got.P99, 0.99}} {
		lo := Quantile(xs, math.Max(0, c.q-0.03))
		hi := Quantile(xs, math.Min(1, c.q+0.03))
		if c.got < lo || c.got > hi {
			t.Errorf("%s: P² %.3f outside exact band [%.3f, %.3f]", c.name, c.got, lo, hi)
		}
	}
}

// TestSummarizeInPlaceMatchesSummarize pins the no-copy form to the copying
// one, and NewCDFInPlace to NewCDF.
func TestSummarizeInPlaceMatchesSummarize(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64() * 100
	}
	want := Summarize(xs)
	own := append([]float64(nil), xs...)
	if got := SummarizeInPlace(own); got != want {
		t.Fatalf("SummarizeInPlace %+v != Summarize %+v", got, want)
	}
	c1 := NewCDF(xs)
	c2 := NewCDFInPlace(append([]float64(nil), xs...))
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.999, 1} {
		if c1.Quantile(q) != c2.Quantile(q) {
			t.Fatalf("q=%v: NewCDFInPlace %v != NewCDF %v", q, c2.Quantile(q), c1.Quantile(q))
		}
	}
	if c1.At(0) != c2.At(0) || c1.N() != c2.N() {
		t.Fatal("CDF At/N diverge between copying and in-place forms")
	}
}
