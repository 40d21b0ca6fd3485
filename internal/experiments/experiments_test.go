package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"blameit/internal/core"
	"blameit/internal/netmodel"
	"blameit/internal/stats"
	"blameit/internal/topology"
)

func TestTable1Renders(t *testing.T) {
	tbl := Table1Properties()
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatal("ragged table")
		}
		if row[1] != "yes" {
			t.Errorf("BlameIt must satisfy %q", row[0])
		}
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestTable2Dataset(t *testing.T) {
	ds, out := result[DatasetStats](t, "table2")
	if ds.RTTMeasurements <= 0 || ds.Client24s <= 0 || ds.BGPPrefixes <= 0 {
		t.Fatalf("dataset stats %+v", ds)
	}
	if ds.Client24s < ds.BGPPrefixes {
		t.Error("/24s must outnumber BGP prefixes")
	}
	if ds.RTTMeasurements < int64(ds.Client24s) {
		t.Error("measurements must outnumber prefixes")
	}
	t.Logf("table2:\n%s", out.Text)
}

func TestFigure2Shape(t *testing.T) {
	res, out := result[Fig2Result](t, "fig2")
	if seriesIn(out.Text) != netmodel.NumDeviceClasses {
		t.Fatal("series count")
	}
	if res.Total == 0 {
		t.Fatal("no quartets")
	}
	// Badness must be present but not overwhelming in every region.
	for _, reg := range netmodel.AllRegions() {
		frac := res.Frac[reg][netmodel.NonMobile]
		if frac < 0 || frac > 0.6 {
			t.Errorf("%v non-mobile bad fraction = %v", reg, frac)
		}
	}
	t.Logf("fig2 fractions: %+v", res.Frac)
}

func TestFigure3Shape(t *testing.T) {
	res, out := result[Fig3Result](t, "fig3")
	if len(res.CountryHourly) != 168 {
		t.Fatalf("hours = %d", len(res.CountryHourly))
	}
	if !res.NightHigherThanDay {
		t.Error("night badness must exceed work-hours badness (paper §2.2)")
	}
	if seriesIn(out.Text) != 3 {
		t.Error("want USA + two ISPs")
	}
	t.Logf("fig3:\n%s", out.Text)
}

func TestFigure4aShape(t *testing.T) {
	res, _ := result[Fig4aResult](t, "fig4a")
	if res.N == 0 {
		t.Fatal("no incidents")
	}
	if res.FracOneBucket < 0.4 {
		t.Errorf("one-bucket fraction = %v, want the majority fleeting", res.FracOneBucket)
	}
	if res.FracOver2h > 0.2 {
		t.Errorf("long-tail fraction = %v, too heavy", res.FracOver2h)
	}
	total := 0
	for d, c := range res.DurationCounts {
		if d < 1 || c < 1 {
			t.Fatalf("nonsense duration count %d x %d", d, c)
		}
		total += c
	}
	if total != res.N {
		t.Fatalf("duration counts sum to %d, want %d incidents", total, res.N)
	}
	assertSketchClose(t, "fig4a durations", res.Exact, res.Streamed)
	t.Logf("fig4a: 1-bucket=%.2f >2h=%.3f n=%d exact=%v streamed=%v",
		res.FracOneBucket, res.FracOver2h, res.N, res.Exact, res.Streamed)
}

// assertSketchClose pins a P² streamed summary to the exact summary of
// the same stream: count/min/max/mean are exact by construction, the
// quantile estimates must land within sketch tolerance.
func assertSketchClose(t *testing.T, what string, exact, streamed stats.Summary) {
	t.Helper()
	if streamed.N != exact.N || streamed.Min != exact.Min || streamed.Max != exact.Max {
		t.Errorf("%s: streamed n/min/max (%d/%v/%v) != exact (%d/%v/%v)",
			what, streamed.N, streamed.Min, streamed.Max, exact.N, exact.Min, exact.Max)
	}
	if math.Abs(streamed.Mean-exact.Mean) > 1e-9*(1+math.Abs(exact.Mean)) {
		t.Errorf("%s: streamed mean %v != exact %v", what, streamed.Mean, exact.Mean)
	}
	for _, q := range []struct {
		name          string
		exact, sketch float64
	}{
		{"p10", exact.P10, streamed.P10},
		{"p50", exact.P50, streamed.P50},
		{"p90", exact.P90, streamed.P90},
		{"p99", exact.P99, streamed.P99},
	} {
		tol := math.Max(1.5, 0.35*q.exact)
		if math.Abs(q.sketch-q.exact) > tol {
			t.Errorf("%s %s: sketch %v vs exact %v (tolerance %v)", what, q.name, q.sketch, q.exact, tol)
		}
	}
}

func TestFigure4bShape(t *testing.T) {
	res, _ := result[Fig4bResult](t, "fig4b")
	if len(res.Tuples) == 0 {
		t.Fatal("no tuples")
	}
	if res.TuplesFor80ByImpact > res.TuplesFor80ByPrefix {
		t.Errorf("impact ranking (%.2f) must need no more tuples than prefix ranking (%.2f)",
			res.TuplesFor80ByImpact, res.TuplesFor80ByPrefix)
	}
	t.Logf("fig4b: byImpact=%.2f byPrefix=%.2f advantage=%.1fx tuples=%d",
		res.TuplesFor80ByImpact, res.TuplesFor80ByPrefix, res.RatioAdvantage, len(res.Tuples))
}

func TestFigure5Example(t *testing.T) {
	tbl := Figure5Example()
	if len(tbl.Rows) != 2 {
		t.Fatal("rows")
	}
}

func TestFigure6Shape(t *testing.T) {
	res, _ := result[Fig6Result](t, "fig6")
	if len(res.ByBGPPath) != len(topology.Generate(small.Scale, small.Seed).Prefixes) {
		t.Fatal("missing prefixes")
	}
	mp, ma, mpath := stats.Mean(res.ByBGPPrefix), stats.Mean(res.ByBGPAtom), stats.Mean(res.ByBGPPath)
	if mpath < ma || ma < mp {
		t.Errorf("sharing must grow prefix(%.1f) <= atom(%.1f) <= path(%.1f)", mp, ma, mpath)
	}
	t.Logf("fig6 means: prefix=%.1f atom=%.1f path=%.1f", mp, ma, mpath)
}

func TestFigure8Shape(t *testing.T) {
	res, _ := result[Fig8Result](t, "fig8")
	for _, cat := range core.Categories() {
		if len(res.Daily[cat]) != res.Days {
			t.Fatal("missing days")
		}
	}
	// Cloud fraction should spike on the maintenance day.
	cloud, m := res.Daily[core.BlameCloud], res.MaintenanceDay
	if cloud[m] <= cloud[m-1] && cloud[m] <= cloud[m+1] {
		t.Errorf("maintenance day cloud fraction %.3f not elevated vs %.3f/%.3f", cloud[m], cloud[m-1], cloud[m+1])
	}
	t.Logf("fig8 cloud=%v middle=%v client=%v insuff=%v ambig=%v",
		res.Daily[core.BlameCloud], res.Daily[core.BlameMiddle], res.Daily[core.BlameClient],
		res.Daily[core.BlameInsufficient], res.Daily[core.BlameAmbiguous])
}

func TestFigure9Shape(t *testing.T) {
	res, _ := result[Fig9Result](t, "fig9")
	boosted := res.Frac[netmodel.RegionIndia][core.BlameMiddle] +
		res.Frac[netmodel.RegionChina][core.BlameMiddle] +
		res.Frac[netmodel.RegionBrazil][core.BlameMiddle]
	usa := res.Frac[netmodel.RegionUSA][core.BlameMiddle]
	t.Logf("fig9 middle: india=%.2f china=%.2f brazil=%.2f usa=%.2f",
		res.Frac[netmodel.RegionIndia][core.BlameMiddle],
		res.Frac[netmodel.RegionChina][core.BlameMiddle],
		res.Frac[netmodel.RegionBrazil][core.BlameMiddle], usa)
	if boosted/3 <= usa {
		t.Errorf("boosted regions' middle fraction (%.2f avg) not above USA (%.2f)", boosted/3, usa)
	}
}

func TestFigure10Shape(t *testing.T) {
	res, _ := result[Fig10Result](t, "fig10")
	total := 0
	for cat, counts := range res.Counts {
		n := 0
		for _, c := range counts {
			n += c
		}
		if n != res.Incidents(cat) {
			t.Fatalf("%v counts sum to %d, want %d incidents", cat, n, res.Incidents(cat))
		}
		total += n
		assertSketchClose(t, "fig10 "+cat.String(), res.Exact[cat], res.Streamed[cat])
	}
	if total == 0 {
		t.Fatal("no incidents")
	}
	t.Logf("fig10 incident counts: cloud=%d middle=%d client=%d",
		res.Incidents(core.BlameCloud), res.Incidents(core.BlameMiddle), res.Incidents(core.BlameClient))
}

func TestRunCasesFiveScenarios(t *testing.T) {
	outcomes, _ := result[[]CaseOutcome](t, "cases")
	if len(outcomes) != 5 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	correct := 0
	for _, co := range outcomes {
		t.Logf("case %s: truth=%v blamed=%v conf=%.2f activeAS=%d (truth %d)",
			co.Name, co.TruthSegment, co.BlamedSegment, co.Confidence, co.ActiveAS, co.TruthAS)
		if co.CorrectSegment {
			correct++
		}
	}
	if correct < 4 {
		t.Errorf("only %d/5 case studies localized correctly", correct)
	}
}

func TestTomographyInfeasibility(t *testing.T) {
	res, out := result[TomoResult](t, "tomo")
	if res.Rank >= res.Unknowns {
		t.Error("system must be rank-deficient")
	}
	if res.CloudIdent {
		t.Error("lc1 must be unidentifiable")
	}
	if !res.CompIdent || !res.DiffIdent {
		t.Error("composites must be identifiable")
	}
	if !res.BoolAmbig {
		t.Error("boolean instance must be ambiguous")
	}
	if out.Text == "" {
		t.Error("empty render")
	}
}

func TestFigureRenderAndSparkline(t *testing.T) {
	fig := &Figure{
		ID: "X", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "s", X: []float64{1, 2, 3}, Y: []float64{1, 4, 9}}},
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty figure render")
	}
	if sparkline(nil, 10) != "" {
		t.Error("empty sparkline")
	}
	if got := len([]rune(sparkline([]float64{1, 2, 3}, 10))); got != 3 {
		t.Errorf("short series sparkline length = %d", got)
	}
	if fmtInt(1234567) != "1,234,567" || fmtInt(-42) != "-42" || fmtInt(7) != "7" {
		t.Error("fmtInt broken")
	}
}

func TestIncidentBatterySuite(t *testing.T) {
	outcomes, out := result[[]CaseOutcome](t, "battery")
	if len(outcomes) != 88 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	if rowsIn(out.Text) != 10 || !strings.Contains(out.Text, "(first 10 of 88 incidents shown)") {
		t.Fatalf("table rows:\n%s", out.Text)
	}
	frac := CorrectFraction(outcomes)
	if frac < 0.85 {
		for _, co := range outcomes {
			if !co.CorrectSegment {
				t.Logf("wrong: %s truth=%v blamed=%v conf=%.2f localized=%v",
					co.Name, co.TruthSegment, co.BlamedSegment, co.Confidence, co.Localized)
			}
		}
		t.Errorf("battery correct fraction = %.2f (paper: 88/88)", frac)
	}
	t.Logf("battery: %d/%d correct", int(frac*88+0.5), 88)
}

func TestReverseEval(t *testing.T) {
	res, out := result[ReverseEvalResult](t, "reverse")
	if res.Episodes != 15 {
		t.Fatalf("episodes = %d", res.Episodes)
	}
	if res.ForwardAccuracy > 0.3 {
		t.Errorf("forward-only accuracy = %.2f; reverse faults should be invisible to forward probing", res.ForwardAccuracy)
	}
	if res.ReverseAccuracy <= res.ForwardAccuracy {
		t.Errorf("reverse re-check (%.2f) must beat forward-only (%.2f)", res.ReverseAccuracy, res.ForwardAccuracy)
	}
	if res.Covered == 0 {
		t.Fatal("no covered episodes")
	}
	if res.CoveredAccuracy < 0.8 {
		t.Errorf("accuracy within rich-client coverage = %.2f, want high", res.CoveredAccuracy)
	}
	if rowsIn(out.Text) != 3 {
		t.Error("table rows")
	}
	t.Logf("reverse eval: forward=%.2f reverse=%.2f covered=%.2f suspicious=%d/%d",
		res.ForwardAccuracy, res.ReverseAccuracy, res.CoveredAccuracy, res.SuspiciousFlagged, res.Episodes)
}
