package experiments

import (
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
)

func smallWorkload(n int) MiddleWorkload {
	return DefaultMiddleWorkload(small.Scale, small.Seed, n)
}

func TestMiddleWorkloadBuild(t *testing.T) {
	mw := smallWorkload(5)
	env, start, end := mw.Build()
	if start != 2*netmodel.BucketsPerDay {
		t.Errorf("start = %d", start)
	}
	if end <= start {
		t.Fatal("empty window")
	}
	if len(env.Sched.Faults) != 5 {
		t.Fatalf("faults = %d", len(env.Sched.Faults))
	}
	// Faults must be sequential and inside the window.
	for i, f := range env.Sched.Faults {
		if f.Start < start || f.End() > end {
			t.Error("fault outside window")
		}
		if i > 0 && f.Start < env.Sched.Faults[i-1].End() {
			t.Error("overlapping faults")
		}
	}
}

func TestRunMiddleEvalAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("middle eval in -short mode")
	}
	mw := smallWorkload(12)
	env, start, end := mw.Build()
	pcfg := pipeline.DefaultConfig()
	pcfg.BudgetPerCloudPerDay = 0
	res := env.RunMiddleEval(MiddleEvalConfig{Pipeline: pcfg, WarmupDays: mw.WarmupDays, From: start, To: end})
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	// Count records tied to real faults and their correctness.
	var onFault, correct int
	for _, rec := range res.Records {
		if rec.TruthFault >= 0 {
			onFault++
			if rec.Correct() {
				correct++
			}
		}
	}
	if onFault == 0 {
		t.Fatal("no fault-attributed records")
	}
	if frac := float64(correct) / float64(onFault); frac < 0.7 {
		t.Errorf("fault-record accuracy = %.2f", frac)
	}
	t.Logf("records=%d onFault=%d correct=%d overall-acc=%.2f", len(res.Records), onFault, correct, res.Accuracy())
}

func TestFigure11Shape(t *testing.T) {
	res, out := result[Fig11Result](t, "fig11")
	if len(res.BGPPathRatios) == 0 {
		t.Fatal("no paths graded")
	}
	if res.PerfectFracBGPPath <= res.PerfectFracASMetro {
		t.Errorf("BGP-path grouping (%.2f perfect) must beat <AS,Metro> (%.2f)",
			res.PerfectFracBGPPath, res.PerfectFracASMetro)
	}
	if res.PerfectFracBGPPath < 0.6 {
		t.Errorf("BGP-path perfect corroboration = %.2f, want high", res.PerfectFracBGPPath)
	}
	if seriesIn(out.Text) != 2 {
		t.Error("want two series")
	}
	t.Logf("fig11: perfect bgp=%.2f asmetro=%.2f paths=%d/%d",
		res.PerfectFracBGPPath, res.PerfectFracASMetro, len(res.BGPPathRatios), len(res.ASMetroRatios))
}

func TestFigure12Shape(t *testing.T) {
	res, _ := result[Fig12Result](t, "fig12")
	if len(res.OracleCoverage) == 0 {
		t.Fatal("no episodes")
	}
	// Impact is skewed: a minority of issues carries the bulk.
	if res.Top5Oracle <= 0.05 {
		t.Errorf("top-5%% oracle coverage = %.2f, no skew", res.Top5Oracle)
	}
	// BlameIt's estimated ranking must track the oracle: positive rank
	// correlation and comparable coverage at a quarter of the issues (the
	// 5% point is a single episode at this scale, so it is only logged).
	if res.Spearman < 0.2 {
		t.Errorf("spearman = %.2f, want positive correlation with oracle", res.Spearman)
	}
	if res.Top25Estimate < res.Top25Oracle*0.4 {
		t.Errorf("top-25%% estimate coverage %.2f far below oracle %.2f", res.Top25Estimate, res.Top25Oracle)
	}
	t.Logf("fig12: top5 oracle=%.2f est=%.2f; top25 oracle=%.2f est=%.2f; spearman=%.2f episodes=%d",
		res.Top5Oracle, res.Top5Estimate, res.Top25Oracle, res.Top25Estimate, res.Spearman, res.Episodes)
}

func TestFigure13Shape(t *testing.T) {
	res, _ := result[Fig13Result](t, "fig13")
	if len(res.Points) != 10 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Probing volume must fall monotonically with period (within churn
	// class), and the 72x-style reduction must be large.
	if res.ProbeReduction1012h < 30 {
		t.Errorf("probe reduction = %.1fx, want large (paper: 72x)", res.ProbeReduction1012h)
	}
	if res.SweetSpotAccuracy < 0.75 {
		t.Errorf("sweet-spot accuracy = %.2f", res.SweetSpotAccuracy)
	}
	// Accuracy with churn triggers at 12h must beat periodic-only at 12h.
	var acc12On, acc12Off float64
	for _, pt := range res.Points {
		if pt.PeriodBuckets == 12*netmodel.BucketsPerHour {
			if pt.OnChurn {
				acc12On = pt.Accuracy
			} else {
				acc12Off = pt.Accuracy
			}
		}
	}
	if acc12On < acc12Off {
		t.Errorf("churn triggers must not hurt accuracy (%.2f vs %.2f)", acc12On, acc12Off)
	}
	for _, pt := range res.Points {
		t.Logf("fig13: period=%3dh churn=%-5v acc=%.2f probes/day=%.0f",
			int(pt.PeriodBuckets)/netmodel.BucketsPerHour, pt.OnChurn, pt.Accuracy, pt.ProbesPerDay)
	}
}

func TestProbeOverheadShape(t *testing.T) {
	res, out := result[ProbeOverheadResult](t, "probes")
	if res.BlameItPerDay <= 0 {
		t.Fatal("no BlameIt probes")
	}
	if res.VsActiveOnly < 10 {
		t.Errorf("active-only overhead advantage = %.1fx, want large (paper: 72x)", res.VsActiveOnly)
	}
	if res.VsTrinocular < 3 {
		t.Errorf("trinocular advantage = %.1fx, want large (paper: 20x)", res.VsTrinocular)
	}
	if res.VsTrinocular >= res.VsActiveOnly {
		t.Error("trinocular must be cheaper than blind continuous probing")
	}
	if rowsIn(out.Text) != 3 {
		t.Error("table rows")
	}
	t.Logf("probes/day: blameit=%.0f activeonly=%.0f trinocular=%.0f (%.0fx / %.0fx)",
		res.BlameItPerDay, res.ActiveOnlyPerDay, res.TrinocularPerDay, res.VsActiveOnly, res.VsTrinocular)
}
