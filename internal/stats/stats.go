// Package stats implements the statistical primitives the reproduction
// relies on: order statistics, empirical CDFs, streaming summaries, and the
// heavy-tailed random distributions that drive the fault model.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs without modifying it, or 0 for an empty
// slice.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// MedianInPlace returns Median(xs), reordering xs instead of copying and
// sorting it: only the two middle order statistics are put in place
// (expected linear time), and the same interpolation reads them, so the
// result is bit-identical to Median's. For callers that take the median of
// many samples and own a buffer to copy each into.
func MedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo := (len(xs) - 1) / 2
	selectKth(xs, lo)
	if lo+1 < len(xs) {
		// Everything after lo is no smaller: the next order statistic is
		// the least of it.
		m := lo + 1
		for i := m + 1; i < len(xs); i++ {
			if floatLess(xs[i], xs[m]) {
				m = i
			}
		}
		xs[lo+1], xs[m] = xs[m], xs[lo+1]
	}
	return sortedQuantile(xs, 0.5)
}

// floatLess orders floats as sort.Float64s does: NaNs before everything.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// selectKth reorders xs so that xs[k] holds the value a full sort would
// put there, with nothing greater before it and nothing smaller after it
// (quickselect, median-of-three pivot).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if floatLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if floatLess(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if floatLess(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for floatLess(xs[i], pivot) {
				i++
			}
			for floatLess(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] is no greater than the pivot, xs[i..hi] no smaller,
		// and anything between them equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Quantile returns the q'th empirical quantile of xs (q in [0,1]) using
// linear interpolation between order statistics. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile computes a quantile over an already-sorted slice.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	// a + frac*(b-a) instead of a*(1-frac) + b*frac: the symmetric form can
	// round an ulp below a when interpolating between equal order statistics,
	// which breaks quantile monotonicity. The clamp pins the few remaining
	// rounding escapes to the bracketing order statistics.
	v := s[lo] + frac*(s[lo+1]-s[lo])
	if v < s[lo] {
		v = s[lo]
	} else if v > s[lo+1] {
		v = s[lo+1]
	}
	return v
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean               float64
	Min, Max           float64
	P10, P50, P90, P99 float64
}

// Summarize computes a Summary of xs without modifying it (the input is
// copied and sorted). Hot paths that own their sample should use
// SummarizeInPlace and skip the copy; unbounded streams should use
// StreamingSummary and skip retaining samples entirely.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	return SummarizeInPlace(s)
}

// SummarizeInPlace computes a Summary of xs, sorting xs in place instead of
// copying it. The result is identical to Summarize.
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sort.Float64s(xs)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Min:  xs[0],
		Max:  xs[len(xs)-1],
		P10:  sortedQuantile(xs, 0.10),
		P50:  sortedQuantile(xs, 0.50),
		P90:  sortedQuantile(xs, 0.90),
		P99:  sortedQuantile(xs, 0.99),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f p10=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.N, s.Mean, s.Min, s.P10, s.P50, s.P90, s.P99, s.Max)
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (which it copies).
func NewCDF(xs []float64) CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// NewCDFInPlace builds an empirical CDF over xs itself, sorting it in place
// and taking ownership — the caller must not mutate xs afterwards. This is
// the no-copy form for hot paths that build a disposable sample slice just
// to wrap it in a CDF.
func NewCDFInPlace(xs []float64) CDF {
	sort.Float64s(xs)
	return CDF{sorted: xs}
}

// N returns the sample size underlying the CDF.
func (c CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q'th quantile of the sample.
func (c CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return sortedQuantile(c.sorted, q)
}

// Points samples the CDF at n evenly spaced quantiles, returning (value,
// cumulative probability) pairs suitable for rendering figure series.
func (c CDF) Points(n int) [][2]float64 {
	if n < 2 || len(c.sorted) == 0 {
		return nil
	}
	out := make([][2]float64, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		out[i] = [2]float64{sortedQuantile(c.sorted, q), q}
	}
	return out
}

// Welford implements a numerically stable streaming mean accumulator.
type Welford struct {
	n    int
	mean float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// BoundedPareto draws from a bounded Pareto distribution with shape alpha
// (> 0) on [lo, hi]. The paper's badness durations are long-tailed (§2.3);
// this is the generator behind them. Samples are guaranteed to stay inside
// [lo, hi]; see boundedParetoInv.
func BoundedPareto(r *rand.Rand, alpha, lo, hi float64) float64 {
	if lo >= hi {
		return lo
	}
	return boundedParetoInv(r.Float64(), alpha, lo, hi)
}

// boundedParetoInv is the inverse CDF of the bounded Pareto: the standard
// form x = (-(u·hi^α − u·lo^α − hi^α) / (hi^α·lo^α))^(−1/α), whose
// endpoints are algebraically exact (u=0 → lo, u=1 → hi) but escape
// numerically: when lo^α ≪ hi^α the numerator cancels to 0 for u near 1
// and Pow(0, −1/α) returns +Inf, and for hi^α beyond float range the
// Inf−Inf cancellation yields NaN. Those escapes are recomputed through
// the cancellation-free equivalent x = lo·(1 − u·(1 − (lo/hi)^α))^(−1/α)
// ((lo/hi)^α ∈ (0,1) never overflows) and the result clamped, so in-range
// draws keep their historical bit patterns (seeded schedules replay
// unchanged) while every sample lands in [lo, hi].
func boundedParetoInv(u, alpha, lo, hi float64) float64 {
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x >= lo && x <= hi {
		return x
	}
	x = lo * math.Pow(1-u*(1-math.Pow(lo/hi, alpha)), -1/alpha)
	return Clamp(x, lo, hi)
}

// LogNormal draws from a log-normal distribution parameterized by the
// location mu and scale sigma of the underlying normal.
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
