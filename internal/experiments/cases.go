package experiments

import (
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/topology"
)

// CaseStudySuite runs the five named §6.3 case studies on a fresh world.
func CaseStudySuite(scale topology.Scale, seed int64) (*Table, []CaseOutcome) {
	w := topology.Generate(scale, seed)
	warmupDays := 1
	scs := faults.CaseStudies(w, seed+3)
	var fs []faults.Fault
	for i := range scs {
		scs[i].Fault.Start += netmodel.Bucket(warmupDays * netmodel.BucketsPerDay)
		fs = append(fs, scs[i].Fault)
	}
	days := int(scs[len(scs)-1].Fault.End())/netmodel.BucketsPerDay + 2
	env := Params{scale, seed}.Env(days, fs)
	outcomes := RunCases(env, scs, warmupDays)
	return CasesTable(outcomes), outcomes
}

// IncidentBatterySuite reproduces the paper's 88-incident validation: n
// randomized sequential incidents, each graded against its ground truth.
func IncidentBatterySuite(scale topology.Scale, seed int64, n int) (*Table, []CaseOutcome) {
	w := topology.Generate(scale, seed)
	warmupDays := 1
	start := netmodel.Bucket(warmupDays*netmodel.BucketsPerDay) + 2*netmodel.BucketsPerHour
	scs := faults.IncidentBattery(w, n, start, 6, seed+7)
	var fs []faults.Fault
	for _, sc := range scs {
		fs = append(fs, sc.Fault)
	}
	days := int(scs[len(scs)-1].Fault.End())/netmodel.BucketsPerDay + 2
	env := Params{scale, seed}.Env(days, fs)
	outcomes := RunCases(env, scs, warmupDays)
	tbl := CasesTable(outcomes)
	tbl.ID = "IncidentBattery"
	tbl.Title = "Randomized incident battery (BlameIt vs injected ground truth)"
	return tbl, outcomes
}

// CorrectFraction returns the share of outcomes with the right segment.
func CorrectFraction(outcomes []CaseOutcome) float64 {
	if len(outcomes) == 0 {
		return 0
	}
	n := 0
	for _, co := range outcomes {
		if co.CorrectSegment {
			n++
		}
	}
	return float64(n) / float64(len(outcomes))
}
