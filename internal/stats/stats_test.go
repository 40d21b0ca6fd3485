package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if Median(nil) != 0 {
		t.Error("Median(nil) != 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5}
	Quantile(xs, 0.5)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{10, 20, 30}
	if Quantile(xs, 0) != 10 || Quantile(xs, 1) != 30 {
		t.Error("quantile edges wrong")
	}
	if Quantile(xs, -0.5) != 10 || Quantile(xs, 1.5) != 30 {
		t.Error("out-of-range q must clamp")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("single element quantile")
	}
}

func TestQuantileMonotonicProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a, b := math.Abs(math.Mod(q1, 1)), math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		return Quantile(raw, a) <= Quantile(raw, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Errorf("summary %+v", s)
	}
	if !almostEqual(s.P50, 50, 1e-9) || !almostEqual(s.P90, 90, 1e-9) {
		t.Errorf("percentiles %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary")
	}
	if s.String() == "" {
		t.Error("summary string empty")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almostEqual(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if NewCDF(nil).At(5) != 0 {
		t.Error("empty CDF must return 0")
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	c := NewCDF(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		v := c.Quantile(q)
		if got := c.At(v); !almostEqual(got, q, 0.01) {
			t.Errorf("At(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0][1] != 0 || pts[4][1] != 1 {
		t.Error("point probabilities must span [0,1]")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] {
			t.Error("point values must be nondecreasing")
		}
	}
	if c.Points(1) != nil || NewCDF(nil).Points(5) != nil {
		t.Error("degenerate Points must return nil")
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("n = %d", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", w.Mean())
	}
	var empty Welford
	if empty.N() != 0 || empty.Mean() != 0 {
		t.Error("empty accumulator not zero")
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := BoundedPareto(r, 1.2, 1, 100)
		if v < 1 || v > 100 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
	if BoundedPareto(r, 1.2, 5, 5) != 5 {
		t.Error("degenerate range must return lo")
	}
}

func TestBoundedParetoSkew(t *testing.T) {
	// A shape-1.2 bounded Pareto on [1,100] should put most mass near the
	// low end: the median well below the midpoint.
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = BoundedPareto(r, 1.2, 1, 100)
	}
	sort.Float64s(xs)
	med := xs[len(xs)/2]
	if med > 5 {
		t.Errorf("median %v too high; distribution not long-tailed", med)
	}
	if xs[len(xs)-1] < 50 {
		t.Errorf("max %v too low; tail missing", xs[len(xs)-1])
	}
}

func TestLogNormal(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := math.Log(LogNormal(r, 2, 0.5))
		sum += x
		sq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if !almostEqual(mean, 2, 0.02) {
		t.Errorf("log-mean = %v", mean)
	}
	if !almostEqual(sd, 0.5, 0.02) {
		t.Errorf("log-stddev = %v", sd)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp wrong")
	}
}

// MedianInPlace selects where Median sorts; the float must be the same one,
// bit for bit, on every shape of input the learner's reservoirs take.
func TestMedianInPlaceMatchesMedian(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	gens := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.NormFloat64()*40 + 80
			}
			return xs
		},
		"all equal": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 42.5
			}
			return xs
		},
		"heavy ties": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(3))
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i) / 3
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n-i) / 3
			}
			return xs
		},
		"nan and inf": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch r.Intn(5) {
				case 0:
					xs[i] = math.NaN()
				case 1:
					xs[i] = math.Inf(1 - 2*r.Intn(2))
				default:
					xs[i] = r.Float64()
				}
			}
			return xs
		},
	}
	sizes := []int{1, 2, 3, 4, 5, 8, 9, 100, 101, 2047, 2048}
	for name, gen := range gens {
		for _, n := range sizes {
			for rep := 0; rep < 5; rep++ {
				xs := gen(n)
				want := Median(xs)
				got := MedianInPlace(append([]float64(nil), xs...))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: MedianInPlace = %v, Median = %v", name, n, got, want)
				}
			}
		}
	}
	if MedianInPlace(nil) != 0 {
		t.Error("MedianInPlace(nil) != 0")
	}
}
