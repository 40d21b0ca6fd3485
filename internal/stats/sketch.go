package stats

import (
	"math"
	"sort"
)

// P2Quantile is the Jain–Chlamtac P² streaming quantile estimator: five
// markers tracking the running q'th quantile in O(1) memory and O(1) per
// observation, with no retained samples. It is the bounded-memory
// alternative to Quantile for hot paths that cannot afford to buffer and
// sort their inputs (the full-sample forms stay the source of truth for
// experiment output, which must be exact).
type P2Quantile struct {
	q       float64
	n       int
	heights [5]float64 // marker heights (estimated quantile values)
	pos     [5]float64 // actual marker positions, 1-based
	want    [5]float64 // desired marker positions
	dwant   [5]float64 // desired-position increments per observation
}

// NewP2Quantile creates an estimator for the q'th quantile, q in (0, 1).
func NewP2Quantile(q float64) *P2Quantile {
	p := &P2Quantile{q: Clamp(q, 0, 1)}
	p.dwant = [5]float64{0, p.q / 2, p.q, (1 + p.q) / 2, 1}
	return p
}

// Q returns the target quantile.
func (p *P2Quantile) Q() float64 { return p.q }

// N returns the number of observations fed so far.
func (p *P2Quantile) N() int { return p.n }

// Add records one observation. Non-finite values are ignored — a single
// NaN would otherwise wedge every marker forever.
func (p *P2Quantile) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if p.n < 5 {
		p.heights[p.n] = x
		p.n++
		if p.n == 5 {
			sort.Float64s(p.heights[:])
			for i := range p.pos {
				p.pos[i] = float64(i + 1)
				p.want[i] = 1 + 4*p.dwant[i]
			}
		}
		return
	}
	p.n++
	// Find the cell k containing x and bump the extreme markers.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.dwant[i]
	}
	// Nudge the three interior markers toward their desired positions,
	// adjusting heights by the P² parabolic fit (linear when the parabola
	// would cross a neighbor).
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := p.parabolic(i, s)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, s)
			}
			p.pos[i] += s
		}
	}
}

// parabolic is the P² quadratic height adjustment for marker i moved by s.
func (p *P2Quantile) parabolic(i int, s float64) float64 {
	return p.heights[i] + s/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+s)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-s)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback height adjustment.
func (p *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return p.heights[i] + s*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current quantile estimate. Below five observations it
// is the exact small-sample quantile.
func (p *P2Quantile) Value() float64 {
	if p.n == 0 {
		return 0
	}
	if p.n < 5 {
		var s [5]float64
		copy(s[:], p.heights[:p.n])
		sort.Float64s(s[:p.n])
		return sortedQuantile(s[:p.n], p.q)
	}
	return p.heights[2]
}

// StreamingSummary is the bounded-memory counterpart of Summarize: exact
// count/mean/min/max (Welford) plus P² estimates of the four quantiles a
// Summary reports, in O(1) memory per stream. Use it where aggregates over
// unbounded streams must not retain raw samples; use Summarize where the
// sample is small or exact order statistics are required.
type StreamingSummary struct {
	w        Welford
	min, max float64
	// NonFinite counts NaN/±Inf observations, which update nothing else.
	NonFinite          int
	p10, p50, p90, p99 *P2Quantile
}

// NewStreamingSummary creates an empty streaming summary.
func NewStreamingSummary() *StreamingSummary {
	return &StreamingSummary{
		min: math.Inf(1), max: math.Inf(-1),
		p10: NewP2Quantile(0.10), p50: NewP2Quantile(0.50),
		p90: NewP2Quantile(0.90), p99: NewP2Quantile(0.99),
	}
}

// Add records one observation.
func (s *StreamingSummary) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		s.NonFinite++
		return
	}
	s.w.Add(x)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	s.p10.Add(x)
	s.p50.Add(x)
	s.p90.Add(x)
	s.p99.Add(x)
}

// N returns the number of finite observations recorded.
func (s *StreamingSummary) N() int { return s.w.N() }

// Summary renders the current state in the same shape Summarize returns;
// the quantiles are P² estimates, everything else is exact.
func (s *StreamingSummary) Summary() Summary {
	if s.w.N() == 0 {
		return Summary{}
	}
	return Summary{
		N: s.w.N(), Mean: s.w.Mean(), Min: s.min, Max: s.max,
		P10: s.p10.Value(), P50: s.p50.Value(), P90: s.p90.Value(), P99: s.p99.Value(),
	}
}
