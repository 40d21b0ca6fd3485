package active

import (
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/predict"
	"blameit/internal/probe"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// mkResult fabricates a middle-blamed core.Result.
func mkResult(blame core.Blame, cloud int, middle netmodel.ASN, prefix int, clients int) core.Result {
	return core.Result{
		Blame: blame,
		Path:  netmodel.Path{Cloud: netmodel.CloudID(cloud), Middle: []netmodel.ASN{middle}, Client: 100},
		Q: quartet.Quartet{Obs: trace.Observation{
			Prefix: netmodel.PrefixID(prefix), Cloud: netmodel.CloudID(cloud), Clients: clients, Samples: 20,
		}, Enough: true, Bad: true},
	}
}

func TestGroupIssues(t *testing.T) {
	results := []core.Result{
		mkResult(core.BlameMiddle, 1, 2001, 10, 5),
		mkResult(core.BlameMiddle, 1, 2001, 11, 7),
		mkResult(core.BlameMiddle, 1, 2002, 12, 3),
		mkResult(core.BlameClient, 1, 2003, 13, 9), // not middle: ignored
	}
	issues := GroupIssues(results, 42)
	if len(issues) != 2 {
		t.Fatalf("issues = %d", len(issues))
	}
	var found bool
	for _, is := range issues {
		if len(is.Prefixes) == 2 {
			found = true
			if is.ObservedClients != 12 {
				t.Errorf("observed clients = %d", is.ObservedClients)
			}
			if is.Bucket != 42 {
				t.Errorf("bucket = %d", is.Bucket)
			}
		}
	}
	if !found {
		t.Error("grouped issue with 2 prefixes missing")
	}
}

func TestTrackerRunsAndTraining(t *testing.T) {
	dp := predict.NewDurationPredictor(1)
	tr := NewTracker(dp)
	k := netmodel.MiddleKey("c1|2001")
	tr.Advance(0, []netmodel.MiddleKey{k})
	tr.Advance(1, []netmodel.MiddleKey{k})
	if tr.Lasted(k) != 2 {
		t.Errorf("lasted = %d", tr.Lasted(k))
	}
	tr.Advance(2, nil) // run ends: 2 buckets recorded
	if tr.Lasted(k) != 0 {
		t.Error("run not closed")
	}
	if dp.Incidents() != 1 {
		t.Fatalf("incidents = %d", dp.Incidents())
	}
	if dp.ProbLastsAtLeast(2) != 1 {
		t.Error("recorded duration wrong")
	}
	tr.Advance(3, []netmodel.MiddleKey{k})
	tr.Flush()
	if dp.Incidents() != 2 {
		t.Error("flush did not record open run")
	}
}

func TestTrackerGapClosesRuns(t *testing.T) {
	dp := predict.NewDurationPredictor(1)
	tr := NewTracker(dp)
	k := netmodel.MiddleKey("c1|2001")
	tr.Advance(0, []netmodel.MiddleKey{k})
	tr.Advance(10, []netmodel.MiddleKey{k}) // gap
	if tr.Lasted(k) != 1 {
		t.Errorf("gap must reset run, lasted = %d", tr.Lasted(k))
	}
	if dp.Incidents() != 1 {
		t.Error("gap-closed run not recorded")
	}
}

func TestPrioritizeOrdering(t *testing.T) {
	issues := []Issue{
		{Key: "a", ClientTime: 10},
		{Key: "b", ClientTime: 500},
		{Key: "c", ClientTime: 500, ObservedClients: 5},
		{Key: "d", ClientTime: 50},
	}
	Prioritize(issues)
	if issues[0].Key != "c" || issues[1].Key != "b" || issues[2].Key != "d" || issues[3].Key != "a" {
		t.Errorf("order = %v %v %v %v", issues[0].Key, issues[1].Key, issues[2].Key, issues[3].Key)
	}
}

func TestEstimateUsesPredictors(t *testing.T) {
	dp := predict.NewDurationPredictor(1)
	k := netmodel.MiddleKey("c1|2001")
	var keys netmodel.KeySpace
	id := keys.Intern(k)
	cp := predict.NewClientPredictor(&keys)
	// Every historical issue on the path lasts 10 buckets.
	for i := 0; i < 20; i++ {
		dp.Record(k, 10)
	}
	// The same window yesterday carried 40 clients.
	of := 100
	cp.Record(id, netmodel.Bucket(of), 40)
	l := &Localizer{Durations: dp, Clients: cp}
	is := Issue{Key: k, Bucket: netmodel.Bucket(netmodel.BucketsPerDay + of)}
	l.Estimate(&is, 4)
	// remaining = 6, clients = 40 => 240.
	if is.ClientTime != 240 {
		t.Errorf("client-time = %v, want 240", is.ClientTime)
	}
	if is.Lasted != 4 {
		t.Errorf("lasted = %d", is.Lasted)
	}
}

func TestEstimateFallsBackToObservedClients(t *testing.T) {
	dp := predict.NewDurationPredictor(1)
	cp := predict.NewClientPredictor(nil)
	l := &Localizer{Durations: dp, Clients: cp}
	is := Issue{Key: "nohistory", Bucket: 5, ObservedClients: 17}
	l.Estimate(&is, 1)
	// remaining falls back to 1, clients to observed 17.
	if is.ClientTime != 17 {
		t.Errorf("client-time = %v, want 17", is.ClientTime)
	}
}

// TestProcessEndToEnd drives the full active phase against a simulated
// middle fault and verifies the culprit AS is named.
func TestProcessEndToEnd(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	as := w.Tier1s[0]
	fault := faults.Fault{Kind: faults.MiddleASFault, AS: as, ScopeCloud: faults.NoCloud, Start: 200, Duration: 30, ExtraMS: 80}
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, 2*netmodel.BucketsPerDay, 7)
	s := sim.New(w, tbl, faults.NewSchedule([]faults.Fault{fault}), sim.DefaultConfig(99))
	engine := probe.NewEngine(s, 0.5)
	bg := probe.NewBaseliner(probe.BackgroundConfig{PeriodBuckets: 144, OnChurn: true}, engine, tbl)
	for b := netmodel.Bucket(0); b < 200; b++ {
		bg.Advance(b)
	}
	dp := predict.NewDurationPredictor(2)
	cp := predict.NewClientPredictor(tbl.Keys())
	loc := NewLocalizer(engine, bg, probe.NewBudget(0), dp, cp)
	tr := NewTracker(dp)

	// Build middle-blamed results for every (prefix, cloud) pair crossing
	// the faulty AS, as Algorithm 1 would have.
	var results []core.Result
	b := netmodel.Bucket(205)
	for _, p := range w.Prefixes {
		for _, att := range w.Attachments(p.ID) {
			path := tbl.PathAtForPrefix(att.Cloud, p.ID, b)
			onPath := false
			for _, m := range path.Middle {
				if m == as {
					onPath = true
				}
			}
			if !onPath {
				continue
			}
			results = append(results, core.Result{
				Blame: core.BlameMiddle,
				Path:  path,
				Q: quartet.Quartet{Obs: trace.Observation{
					Prefix: p.ID, Cloud: att.Cloud, Bucket: b, Clients: 10, Samples: 30,
				}, Enough: true, Bad: true},
			})
		}
	}
	if len(results) == 0 {
		t.Fatal("no affected paths")
	}
	tr.Advance(b, MiddleKeysOf(results))
	verdicts := loc.Process(b, results, tr)
	if len(verdicts) == 0 {
		t.Fatal("no verdicts")
	}
	correct, ok := 0, 0
	for _, v := range verdicts {
		if !v.Probed {
			t.Error("unlimited budget but issue not probed")
		}
		if v.OK {
			ok++
			if v.AS == as {
				correct++
			}
		}
	}
	if ok == 0 {
		t.Fatal("no comparable verdicts")
	}
	if correct < ok*9/10 {
		t.Errorf("only %d/%d comparable verdicts named the right AS", correct, ok)
	}
}

func TestProcessRespectsBudget(t *testing.T) {
	w := topology.Generate(topology.SmallScale(), 42)
	tbl := bgp.NewTable(w, bgp.ChurnConfig{}, netmodel.BucketsPerDay, 7)
	s := sim.New(w, tbl, faults.NewSchedule(nil), sim.DefaultConfig(99))
	engine := probe.NewEngine(s, 0)
	bg := probe.NewBaseliner(probe.BackgroundConfig{PeriodBuckets: 0, OnChurn: false}, engine, tbl)
	loc := NewLocalizer(engine, bg, probe.NewBudget(1), predict.NewDurationPredictor(1), predict.NewClientPredictor(tbl.Keys()))
	tr := NewTracker(nil)

	// Three middle issues at the same cloud, budget of 1/day.
	results := []core.Result{
		mkResult(core.BlameMiddle, int(w.Clouds[0].ID), 2001, 0, 50),
		mkResult(core.BlameMiddle, int(w.Clouds[0].ID), 2002, 1, 10),
		mkResult(core.BlameMiddle, int(w.Clouds[0].ID), 2003, 2, 90),
	}
	for i := range results {
		results[i].Q.Obs.Bucket = 5
	}
	tr.Advance(5, MiddleKeysOf(results))
	verdicts := loc.Process(5, results, tr)
	probed := 0
	for _, v := range verdicts {
		if v.Probed {
			probed++
			// The highest client-time issue (most observed clients, since no
			// history) must win the budget.
			if v.Issue.ObservedClients != 90 {
				t.Errorf("budget went to issue with %d clients", v.Issue.ObservedClients)
			}
		}
	}
	if probed != 1 {
		t.Errorf("probed = %d, want 1", probed)
	}
}

func TestMiddleKeysOfDedup(t *testing.T) {
	results := []core.Result{
		mkResult(core.BlameMiddle, 1, 2001, 0, 1),
		mkResult(core.BlameMiddle, 1, 2001, 1, 1),
		mkResult(core.BlameMiddle, 2, 2001, 2, 1),
	}
	keys := MiddleKeysOf(results)
	if len(keys) != 2 {
		t.Errorf("keys = %v", keys)
	}
}
