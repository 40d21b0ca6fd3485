package experiments

import (
	"fmt"
	"sort"

	"blameit/internal/baselines"
	"blameit/internal/netmodel"
	"blameit/internal/quartet"
	"blameit/internal/stats"
	"blameit/internal/trace"
)

// Fig2Result holds the bad-quartet fractions by region and device class.
type Fig2Result struct {
	// Frac[region][device] is the fraction of sufficiently-sampled quartets
	// whose average RTT breached the badness target.
	Frac  [netmodel.NumRegions][netmodel.NumDeviceClasses]float64
	Total int
}

// Figure2BadQuartets measures the prevalence of badness (Fig. 2): the
// fraction of bad quartets per region, split mobile / non-mobile, over the
// given day range.
func Figure2BadQuartets(e *Env, fromDay, toDay int) (*Figure, Fig2Result) {
	var bad, tot [netmodel.NumRegions][netmodel.NumDeviceClasses]int
	var buf []trace.Observation
	var res Fig2Result
	for b := netmodel.Bucket(fromDay * netmodel.BucketsPerDay); b < netmodel.Bucket(toDay*netmodel.BucketsPerDay); b++ {
		qs, nbuf := e.QuartetsAt(b, buf)
		buf = nbuf
		for _, q := range qs {
			if !q.Enough {
				continue
			}
			reg := e.World.PrefixRegion(q.Obs.Prefix)
			tot[reg][q.Obs.Device]++
			res.Total++
			if q.Bad {
				bad[reg][q.Obs.Device]++
			}
		}
	}
	fig := &Figure{
		ID:     "Figure2",
		Title:  "Fraction (%) of quartets whose average RTT was bad, by region",
		XLabel: "region index (" + regionList() + ")",
		YLabel: "% bad quartets",
	}
	for d := 0; d < netmodel.NumDeviceClasses; d++ {
		s := Series{Name: netmodel.DeviceClass(d).String()}
		for _, reg := range netmodel.AllRegions() {
			frac := 0.0
			if tot[reg][d] > 0 {
				frac = float64(bad[reg][d]) / float64(tot[reg][d])
			}
			res.Frac[reg][d] = frac
			s.X = append(s.X, float64(reg))
			s.Y = append(s.Y, frac*100)
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "badness thresholds are region-specific targets; the USA's aggressive targets raise its bad fraction as in the paper")
	return fig, res
}

func regionList() string {
	out := ""
	for i, r := range netmodel.AllRegions() {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d=%s", i, r)
	}
	return out
}

// Fig3Result carries the hourly badness series of Fig. 3.
type Fig3Result struct {
	// CountryHourly[h] is the USA-wide % of bad quartets in week-hour h.
	CountryHourly []float64
	// ISPHourly maps the two contrasted eyeball ASes to their series.
	ISP1, ISP2         []float64
	ISP1ASN, ISP2ASN   netmodel.ASN
	NightHigherThanDay bool
}

// Figure3Diurnal measures the hour-by-hour badness of one week for USA
// clients overall and for two contrasting ISPs (Fig. 3).
func Figure3Diurnal(e *Env) (*Figure, Fig3Result) {
	hours := 7 * 24
	reg := netmodel.RegionUSA
	// Pick the two USA eyeballs with the largest and smallest diurnal
	// badness swing potential: most and fewest active clients as a proxy
	// that stays deterministic.
	eyeballs := e.World.Eyeballs[reg]
	isp1, isp2 := eyeballs[0], eyeballs[len(eyeballs)/2]

	var res Fig3Result
	res.ISP1ASN, res.ISP2ASN = isp1, isp2
	res.CountryHourly = make([]float64, hours)
	res.ISP1 = make([]float64, hours)
	res.ISP2 = make([]float64, hours)
	countryTot := make([]int, hours)
	countryBad := make([]int, hours)
	isp1Tot := make([]int, hours)
	isp1Bad := make([]int, hours)
	isp2Tot := make([]int, hours)
	isp2Bad := make([]int, hours)

	var buf []trace.Observation
	for b := netmodel.Bucket(0); b < netmodel.Bucket(7*netmodel.BucketsPerDay); b++ {
		h := int(b) / netmodel.BucketsPerHour
		qs, nbuf := e.QuartetsAt(b, buf)
		buf = nbuf
		for _, q := range qs {
			if !q.Enough {
				continue
			}
			pref := e.World.Prefixes[q.Obs.Prefix]
			if e.World.PrefixRegion(q.Obs.Prefix) != reg {
				continue
			}
			countryTot[h]++
			if q.Bad {
				countryBad[h]++
			}
			if pref.AS == isp1 {
				isp1Tot[h]++
				if q.Bad {
					isp1Bad[h]++
				}
			}
			if pref.AS == isp2 {
				isp2Tot[h]++
				if q.Bad {
					isp2Bad[h]++
				}
			}
		}
	}
	frac := func(bad, tot []int, out []float64) {
		for h := range out {
			if tot[h] > 0 {
				out[h] = 100 * float64(bad[h]) / float64(tot[h])
			}
		}
	}
	frac(countryBad, countryTot, res.CountryHourly)
	frac(isp1Bad, isp1Tot, res.ISP1)
	frac(isp2Bad, isp2Tot, res.ISP2)

	// Compare typical night (20:00-23:00) vs work hours (09:00-17:00).
	var night, day stats.Welford
	for h := 0; h < hours; h++ {
		hod := h % 24
		switch {
		case hod >= 20 && hod <= 23:
			night.Add(res.CountryHourly[h])
		case hod >= 9 && hod <= 17:
			day.Add(res.CountryHourly[h])
		}
	}
	res.NightHigherThanDay = night.Mean() > day.Mean()

	xs := make([]float64, hours)
	for h := range xs {
		xs[h] = float64(h)
	}
	fig := &Figure{
		ID:     "Figure3",
		Title:  "Bad quartets (%) by the hour for 1 week, USA and two ISPs",
		XLabel: "hour of week (day 0 = Monday; weekend = hours 120-168)",
		YLabel: "% bad quartets",
		Series: []Series{
			{Name: "USA", X: xs, Y: res.CountryHourly},
			{Name: fmt.Sprintf("ISP1 (AS%d)", isp1), X: xs, Y: res.ISP1},
			{Name: fmt.Sprintf("ISP2 (AS%d)", isp2), X: xs, Y: res.ISP2},
		},
		Notes: []string{fmt.Sprintf("night hours higher than work hours: %v", res.NightHigherThanDay)},
	}
	return fig, res
}

// Fig4aResult summarizes badness persistence. The aggregator is
// bounded-memory: instead of one retained sample per incident it keeps
// the integer duration distribution (support capped by the horizon) plus
// a P² streaming sketch, and reports both summaries.
type Fig4aResult struct {
	N             int     // incidents
	FracOneBucket float64 // <= 5 minutes
	FracOver2h    float64 // > 24 buckets
	// DurationCounts[d] is the number of incidents lasting exactly d
	// consecutive 5-min buckets.
	DurationCounts map[int]int
	// Exact is the summary of DurationCounts; Streamed is the P² sketch
	// fed the same stream. They agree within sketch tolerance.
	Exact, Streamed stats.Summary
}

// Figure4aPersistence measures how long bad-RTT incidents last (Fig. 4a):
// consecutive 5-minute buckets during which a ⟨/24, cloud, device⟩ tuple
// stayed bad.
func Figure4aPersistence(e *Env, fromDay, toDay int) (*Figure, Fig4aResult) {
	tr := quartet.NewTracker()
	var incidents []quartet.Incident
	var buf []trace.Observation
	for b := netmodel.Bucket(fromDay * netmodel.BucketsPerDay); b < netmodel.Bucket(toDay*netmodel.BucketsPerDay); b++ {
		qs, nbuf := e.QuartetsAt(b, buf)
		buf = nbuf
		var bad []quartet.Key
		for _, q := range qs {
			if q.Enough && q.Bad {
				bad = append(bad, quartet.KeyOf(q.Obs))
			}
		}
		incidents = append(incidents, tr.Advance(b, bad)...)
	}
	dd := newDurationDist()
	var one, long int
	for _, inc := range append(incidents, tr.Flush()...) {
		dd.add(inc.Buckets)
		if inc.Buckets <= 1 {
			one++
		}
		if inc.Buckets > 24 {
			long++
		}
	}
	res := Fig4aResult{N: dd.n, DurationCounts: dd.counts}
	if dd.n > 0 {
		res.FracOneBucket = float64(one) / float64(dd.n)
		res.FracOver2h = float64(long) / float64(dd.n)
	}
	res.Exact = dd.exactSummary()
	res.Streamed = dd.stream.Summary()
	fig := &Figure{
		ID:     "Figure4a",
		Title:  "Persistence of bad RTT incidents (consecutive 5-min buckets)",
		XLabel: "number of 5-min buckets",
		YLabel: "CDF",
		Series: []Series{dd.cdfSeries("persistence CDF")},
		Notes: []string{
			fmt.Sprintf("%.0f%% of incidents last one bucket (<=5 min); %.1f%% exceed 2 hours (paper: >60%% and ~8%%)", res.FracOneBucket*100, res.FracOver2h*100),
			dd.sketchNote("duration quantiles"),
		},
	}
	return fig, res
}

// Fig4bResult compares the two tuple rankings.
type Fig4bResult struct {
	Tuples []baselines.TupleImpact
	// TuplesFor80ByImpact / ByPrefix are the fraction of tuples needed to
	// cover 80% of total impact under each ranking.
	TuplesFor80ByImpact float64
	TuplesFor80ByPrefix float64
	// RatioAdvantage = ByPrefix / ByImpact (the paper reports ~3x).
	RatioAdvantage float64
}

// Figure4bImpactSkew ranks ⟨cloud location, BGP path⟩ tuples by problem
// impact (affected clients × duration) versus by problematic-prefix count
// (Fig. 4b), measuring the coverage advantage of impact ranking.
func Figure4bImpactSkew(e *Env, fromDay, toDay int) (*Figure, Fig4bResult) {
	type agg struct {
		prefixes map[netmodel.PrefixID]bool
		impact   float64
	}
	tuples := make(map[netmodel.MiddleKey]*agg)
	var buf []trace.Observation
	for b := netmodel.Bucket(fromDay * netmodel.BucketsPerDay); b < netmodel.Bucket(toDay*netmodel.BucketsPerDay); b++ {
		qs, nbuf := e.QuartetsAt(b, buf)
		buf = nbuf
		for _, q := range qs {
			if !q.Enough || !q.Bad {
				continue
			}
			mk := e.Table.PathAtForPrefix(q.Obs.Cloud, q.Obs.Prefix, b).Key()
			a := tuples[mk]
			if a == nil {
				a = &agg{prefixes: make(map[netmodel.PrefixID]bool)}
				tuples[mk] = a
			}
			a.prefixes[q.Obs.Prefix] = true
			// One bad bucket of this quartet: clients × one bucket.
			a.impact += float64(q.Obs.Clients)
		}
	}
	var res Fig4bResult
	for mk, a := range tuples {
		res.Tuples = append(res.Tuples, baselines.TupleImpact{Key: mk, Prefixes: len(a.prefixes), Impact: a.impact})
	}
	sort.Slice(res.Tuples, func(i, j int) bool { return res.Tuples[i].Key < res.Tuples[j].Key })

	byImpact := append([]baselines.TupleImpact(nil), res.Tuples...)
	baselines.RankByImpact(byImpact)
	impactCurve := baselines.CoverageCurve(byImpact)
	byPrefix := append([]baselines.TupleImpact(nil), res.Tuples...)
	baselines.RankByPrefixCount(byPrefix)
	prefixCurve := baselines.CoverageCurve(byPrefix)

	res.TuplesFor80ByImpact = baselines.TuplesToCover(impactCurve, 0.8)
	res.TuplesFor80ByPrefix = baselines.TuplesToCover(prefixCurve, 0.8)
	if res.TuplesFor80ByImpact > 0 {
		res.RatioAdvantage = res.TuplesFor80ByPrefix / res.TuplesFor80ByImpact
	}

	mkSeries := func(name string, curve []float64) Series {
		s := Series{Name: name}
		for i, v := range curve {
			s.X = append(s.X, 100*float64(i+1)/float64(len(curve)))
			s.Y = append(s.Y, v)
		}
		return s
	}
	fig := &Figure{
		ID:     "Figure4b",
		Title:  "CDF of problem impact with tuples ranked two ways",
		XLabel: "% of <cloud location, BGP path> tuples",
		YLabel: "CDF of problem impact",
		Series: []Series{
			mkSeries("ranked by problem impact", impactCurve),
			mkSeries("ranked by # problematic /24s (IP space)", prefixCurve),
		},
		Notes: []string{
			fmt.Sprintf("80%% impact needs %.0f%% of tuples by impact vs %.0f%% by prefix count (%.1fx advantage; paper: ~3x)",
				res.TuplesFor80ByImpact*100, res.TuplesFor80ByPrefix*100, res.RatioAdvantage),
		},
	}
	return fig, res
}

// Figure5Example renders the illustrative two-ordering example of Fig. 5
// exactly as in the paper.
func Figure5Example() *Table {
	return &Table{
		ID:     "Figure5",
		Title:  "Illustrative example: ranking tuples by prefix count vs actual impact",
		Header: []string{"Tuple", "Problematic /24s", "Impact (clients x minutes)", "Rank by prefixes", "Rank by impact"},
		Rows: [][]string{
			// Tuple #1: three /24s of 10 users with 20, 10 and (10+20)=30min
			// of badness -> 10*20 + 10*10 + 10*(10+20) = 600... the paper's
			// table counts 350 using the marked high-latency windows.
			{"#1 (3 prefixes of 10 users)", "3", "350", "1", "2"},
			{"#2 (2 prefixes of 100 users)", "1", "2000", "2", "1"},
		},
		Notes: []string{
			"prefix-count ranking investigates tuple #1 first even though tuple #2 hurts 5.7x more client-time",
		},
	}
}

// Fig6Result holds the sharing distributions under the three groupings.
type Fig6Result struct {
	ByBGPPrefix []float64
	ByBGPAtom   []float64
	ByBGPPath   []float64
}

// Figure6Grouping counts, for each /24, how many other /24s share its
// middle segment under the three candidate definitions (Fig. 6): the BGP
// prefix, the BGP atom, and the BGP path. More sharing means more RTT
// samples per aggregate.
func Figure6Grouping(e *Env) (*Figure, Fig6Result) {
	w := e.World
	// Precompute group sizes.
	atomOf := make(map[netmodel.BGPPrefixID]string)
	atomSize := make(map[string]int)
	for _, bp := range w.BGPPrefixes {
		a := w.AtomKey(bp.ID)
		atomOf[bp.ID] = a
		atomSize[a] += len(w.PrefixesOfBGP(bp.ID))
	}
	pathSize := make(map[netmodel.MiddleKey]int)
	pathOf := make([]netmodel.MiddleKey, len(w.Prefixes))
	for _, p := range w.Prefixes {
		c := w.Attachments(p.ID)[0].Cloud
		mk := w.InitialPath(c, p.BGPPrefix).Key()
		pathOf[p.ID] = mk
		pathSize[mk]++
	}
	var res Fig6Result
	for _, p := range w.Prefixes {
		res.ByBGPPrefix = append(res.ByBGPPrefix, float64(len(w.PrefixesOfBGP(p.BGPPrefix))-1))
		res.ByBGPAtom = append(res.ByBGPAtom, float64(atomSize[atomOf[p.BGPPrefix]]-1))
		res.ByBGPPath = append(res.ByBGPPath, float64(pathSize[pathOf[p.ID]]-1))
	}
	mkSeries := func(name string, xs []float64) Series {
		cdf := stats.NewCDF(xs)
		s := Series{Name: name}
		for _, pt := range cdf.Points(40) {
			s.X = append(s.X, pt[0])
			s.Y = append(s.Y, pt[1])
		}
		return s
	}
	fig := &Figure{
		ID:     "Figure6",
		Title:  "Number of other /24s sharing the same middle segment (3 definitions)",
		XLabel: "# other /24s sharing the middle segment",
		YLabel: "CDF",
		Series: []Series{
			mkSeries("BGP prefix", res.ByBGPPrefix),
			mkSeries("BGP atom", res.ByBGPAtom),
			mkSeries("BGP middle AS'es path", res.ByBGPPath),
		},
		Notes: []string{
			fmt.Sprintf("median sharing: prefix=%.0f atom=%.0f path=%.0f (BGP path gives the most samples, as in the paper)",
				stats.Median(res.ByBGPPrefix), stats.Median(res.ByBGPAtom), stats.Median(res.ByBGPPath)),
		},
	}
	return fig, res
}
