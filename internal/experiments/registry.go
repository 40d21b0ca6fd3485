package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"blameit/internal/core"
	"blameit/internal/netmodel"
	"blameit/internal/stats"
	"blameit/internal/topology"
)

// Params is everything a caller may vary about a registered experiment.
// Sizes (days, fault counts) belong to the entry: each experiment has one.
type Params struct {
	Scale topology.Scale
	Seed  int64
}

// Scalar is one headline number of an experiment, named as the bench
// reports it. Paper is the paper's value for the same quantity, 0 where
// the paper gives none.
type Scalar struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Paper float64 `json:"paper,omitempty"`
}

// Outcome is one run of an experiment, in the three forms its consumers
// read: the text blameit-experiments prints, the scalars
// BenchmarkExperiments reports and EXPERIMENTS.json pins, and the typed
// result (Fig2Result, []CaseOutcome, …) the shape tests assert on.
type Outcome struct {
	Text    string
	Scalars []Scalar
	Result  any
}

// Experiment is one table, figure or ablation of the reproduction.
type Experiment struct {
	// ID is the name -run and BenchmarkExperiments/<id> select it by.
	ID string
	// Artifact names what the entry regenerates.
	Artifact string
	Run      func(Params) Outcome
}

// All returns the registered experiments in presentation order.
func All() []Experiment { return registry }

// Select resolves a -run value: "all", or a comma-separated list of ids,
// returned in presentation order whatever order they were asked in.
func Select(list string) ([]Experiment, error) {
	if list == "all" {
		return registry, nil
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	want := make(map[string]bool)
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var out []Experiment
	for _, e := range registry {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// rendered returns a table's or figure's text followed by any extra lines.
func rendered(r interface{ Render(io.Writer) }, extra ...string) string {
	var sb strings.Builder
	r.Render(&sb)
	for _, s := range extra {
		sb.WriteString(s)
	}
	return sb.String()
}

// registry is the one list of the reproduction's experiments and the one
// place their sizes are set. The sizes are the ones EXPERIMENTS.md quotes;
// -scale medium is the way to run bigger.
var registry = []Experiment{
	{"table1", "Table 1: property comparison with prior solutions", func(Params) Outcome {
		return Outcome{Text: rendered(Table1Properties())}
	}},
	{"table2", "Table 2: dataset details", func(p Params) Outcome {
		tbl, ds := Table2Dataset(p.Env(1, nil), 30)
		return Outcome{rendered(tbl), []Scalar{
			{Name: "rtts/30days", Value: float64(ds.RTTMeasurements)},
			{Name: "client-24s", Value: float64(ds.Client24s)},
			{Name: "bgp-prefixes", Value: float64(ds.BGPPrefixes)},
		}, ds}
	}},
	{"fig2", "Fig. 2: % bad quartets by region and device class", func(p Params) Outcome {
		fig, res := Figure2BadQuartets(p.RandomFaultEnv(1), 0, 1)
		return Outcome{rendered(fig), []Scalar{
			{Name: "usa-bad-%", Value: res.Frac[netmodel.RegionUSA][netmodel.NonMobile] * 100},
			{Name: "india-bad-%", Value: res.Frac[netmodel.RegionIndia][netmodel.NonMobile] * 100},
		}, res}
	}},
	{"fig3", "Fig. 3: % bad quartets by hour for a week", func(p Params) Outcome {
		fig, res := Figure3Diurnal(p.Env(7, nil))
		night := 0.0
		if res.NightHigherThanDay {
			night = 1
		}
		return Outcome{rendered(fig), []Scalar{{Name: "night>day", Value: night}}, res}
	}},
	{"fig4a", "Fig. 4a: persistence of badness", func(p Params) Outcome {
		fig, res := Figure4aPersistence(p.RandomFaultEnv(2), 0, 2)
		return Outcome{rendered(fig), []Scalar{
			{Name: "fleeting-%", Value: res.FracOneBucket * 100, Paper: 60},
			{Name: "over2h-%", Value: res.FracOver2h * 100, Paper: 8},
		}, res}
	}},
	{"fig4b", "Fig. 4b: impact ranking vs prefix-count ranking", func(p Params) Outcome {
		fig, res := Figure4bImpactSkew(p.RandomFaultEnv(2), 0, 2)
		return Outcome{rendered(fig), []Scalar{{Name: "ranking-advantage-x", Value: res.RatioAdvantage, Paper: 3}}, res}
	}},
	{"fig5", "Fig. 5: illustrative two-ordering example", func(Params) Outcome {
		return Outcome{Text: rendered(Figure5Example())}
	}},
	{"fig6", "Fig. 6: /24s sharing a middle segment under three groupings", func(p Params) Outcome {
		fig, res := Figure6Grouping(p.Env(1, nil))
		return Outcome{rendered(fig), []Scalar{
			{Name: "share-prefix", Value: stats.Mean(res.ByBGPPrefix)},
			{Name: "share-atom", Value: stats.Mean(res.ByBGPAtom)},
			{Name: "share-path", Value: stats.Mean(res.ByBGPPath)},
		}, res}
	}},
	// The month is compressed to six days, the maintenance surge on day 3.
	{"fig8", "Fig. 8: blame fractions over a (compressed) month", func(p Params) Outcome {
		const days, maintenance = 6, 3
		fs := Fig8Schedule(p.Env(1, nil), 1, days, maintenance, p.Seed+13)
		fig, res := Figure8BlameFractions(p.Env(days+1, fs), 1, days, maintenance)
		avg := func(cat core.Blame) float64 { return 100 * stats.Mean(res.Daily[cat]) }
		return Outcome{rendered(fig), []Scalar{
			{Name: "cloud-%", Value: avg(core.BlameCloud)},
			{Name: "middle-%", Value: avg(core.BlameMiddle)},
			{Name: "client-%", Value: avg(core.BlameClient)},
			{Name: "maintenance-day-cloud-%", Value: 100 * res.Daily[core.BlameCloud][maintenance]},
		}, res}
	}},
	{"fig9", "Fig. 9: blame fractions for one day across regions", func(p Params) Outcome {
		fs := Fig9Schedule(p.Env(1, nil), 1, p.Seed+17)
		fig, res := Figure9RegionalBlame(p.Env(2, fs), 1)
		return Outcome{rendered(fig), []Scalar{
			{Name: "india-middle-%", Value: 100 * res.Frac[netmodel.RegionIndia][core.BlameMiddle]},
			{Name: "usa-middle-%", Value: 100 * res.Frac[netmodel.RegionUSA][core.BlameMiddle]},
		}, res}
	}},
	{"fig10", "Fig. 10: issue durations by blame category", func(p Params) Outcome {
		fig, res := Figure10DurationByCategory(p.RandomFaultEnv(3), 1, 2)
		return Outcome{rendered(fig), []Scalar{
			{Name: "cloud-incidents", Value: float64(res.Incidents(core.BlameCloud))},
			{Name: "middle-incidents", Value: float64(res.Incidents(core.BlameMiddle))},
			{Name: "client-incidents", Value: float64(res.Incidents(core.BlameClient))},
		}, res}
	}},
	{"cases", "§6.3: the five named case studies", func(p Params) Outcome {
		tbl, outcomes := CaseStudySuite(p.Scale, p.Seed)
		return Outcome{rendered(tbl), []Scalar{{Name: "correct-%", Value: CorrectFraction(outcomes) * 100, Paper: 100}}, outcomes}
	}},
	{"battery", "§6.3: the 88-incident validation", func(p Params) Outcome {
		tbl, outcomes := IncidentBatterySuite(p.Scale, p.Seed, 88)
		// The full per-incident table is long; print the first few rows.
		short := *tbl
		if len(short.Rows) > 10 {
			short.Rows = short.Rows[:10]
			short.Notes = append([]string{"(first 10 of 88 incidents shown)"}, short.Notes...)
		}
		frac := CorrectFraction(outcomes) * 100
		return Outcome{rendered(&short, fmt.Sprintf("  correct fraction: %.1f%%\n\n", frac)), []Scalar{
			{Name: "correct-%", Value: frac, Paper: 100},
			{Name: "incidents", Value: float64(len(outcomes)), Paper: 88},
		}, outcomes}
	}},
	{"fig11", "Fig. 11: per-path corroboration, BGP-path vs <AS,Metro> grouping", func(p Params) Outcome {
		fig, res := Figure11Corroboration(DefaultMiddleWorkload(p.Scale, p.Seed, 25))
		return Outcome{rendered(fig), []Scalar{
			{Name: "bgp-path-perfect-%", Value: res.PerfectFracBGPPath * 100, Paper: 88},
			{Name: "as-metro-perfect-%", Value: res.PerfectFracASMetro * 100},
		}, res}
	}},
	{"fig12", "Fig. 12: client-time product, estimate vs oracle", func(p Params) Outcome {
		fig, res := Figure12ClientTime(DefaultMiddleWorkload(p.Scale, p.Seed, 40))
		tail := fmt.Sprintf("  spearman(estimate, oracle) = %.2f over %d episodes\n\n", res.Spearman, res.Episodes)
		return Outcome{rendered(fig, tail), []Scalar{
			{Name: "top5-oracle-%", Value: res.Top5Oracle * 100, Paper: 83},
			{Name: "top5-estimate-%", Value: res.Top5Estimate * 100},
			{Name: "spearman", Value: res.Spearman},
		}, res}
	}},
	{"fig13", "Fig. 13: accuracy vs background probing frequency", func(p Params) Outcome {
		fig, res := Figure13FrequencySweep(DefaultMiddleWorkload(p.Scale, p.Seed, 15))
		return Outcome{rendered(fig), []Scalar{
			{Name: "sweetspot-accuracy-%", Value: res.SweetSpotAccuracy * 100, Paper: 93},
			{Name: "probe-reduction-x", Value: res.ProbeReduction1012h, Paper: 72},
		}, res}
	}},
	{"probes", "§6.5: probe volume vs active-only and Trinocular-style probing", func(p Params) Outcome {
		tbl, res := ProbeOverhead(DefaultMiddleWorkload(p.Scale, p.Seed, 12))
		return Outcome{rendered(tbl), []Scalar{
			{Name: "vs-active-only-x", Value: res.VsActiveOnly, Paper: 72},
			{Name: "vs-trinocular-x", Value: res.VsTrinocular, Paper: 20},
		}, res}
	}},
	{"tomo", "§4.1: tomography infeasibility", func(Params) Outcome {
		tbl, res := TomographyInfeasibility(10)
		return Outcome{rendered(tbl), []Scalar{{Name: "rank-deficiency", Value: float64(res.Unknowns - res.Rank)}}, res}
	}},
	{"reverse", "§5.1 extension: reverse traceroutes from rich clients", func(p Params) Outcome {
		tbl, res := ReverseEval(p.Scale, p.Seed, 15)
		return Outcome{rendered(tbl), []Scalar{
			{Name: "forward-only-%", Value: res.ForwardAccuracy * 100},
			{Name: "with-reverse-%", Value: res.ReverseAccuracy * 100},
			{Name: "within-coverage-%", Value: res.CoveredAccuracy * 100},
		}, res}
	}},
	{"ablate-tau", "§4 ablation: bad-fraction threshold τ", ablateTau},
	{"ablate-expected-rtt", "§4 ablation: learned expected RTT vs static target", ablateExpectedRTT},
	{"ablate-min-aggregate", "§4 ablation: minimum aggregate size", ablateMinAggregate},
	{"ablate-budget-mode", "§4 ablation: per-location vs per-AS probing budget", ablateBudgetMode},
}
