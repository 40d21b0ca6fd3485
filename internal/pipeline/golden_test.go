package pipeline

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/sim"
	"blameit/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenReport pins the end-to-end outcome of one deterministic pipeline
// day: per-category verdict counts, ticket and incident totals, and the
// counter section of the metrics snapshot. Any behavioral change to the
// classifier, the active phase, alerting, or the instrumentation shows up
// as a diff against testdata/golden_medium.json; regenerate deliberately
// with `go test ./internal/pipeline -run TestGoldenMediumReport -update`.
type goldenReport struct {
	Verdicts  map[string]int   `json:"verdicts"`
	Tickets   int              `json:"tickets"`
	Incidents int              `json:"incidents"`
	Counters  map[string]int64 `json:"counters"`
}

// TestGoldenMediumReport replays the medium-scale integration workload
// (same seeds and marker fault as TestMediumScaleIntegration) and compares
// the full outcome against a checked-in golden file. It also cross-checks
// that the metrics registry agrees with the counts observed through the
// Report callback, so the instrumentation cannot silently drift from the
// pipeline's real output.
func TestGoldenMediumReport(t *testing.T) {
	if testing.Short() {
		t.Skip("golden medium-scale run in -short mode")
	}
	w := topology.Generate(topology.MediumScale(), 7)
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), horizon, 8).Faults
	marker := faults.Fault{
		Kind: faults.CloudFault, Cloud: w.CloudsInRegion(netmodel.RegionIndia)[0], ScopeCloud: faults.NoCloud,
		Start: netmodel.BucketsPerDay + 6*netmodel.BucketsPerHour, Duration: 12, ExtraMS: 80,
	}
	fs = append(fs, marker)
	reg := metrics.NewRegistry()
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 9)
	scfg := sim.DefaultConfig(10)
	scfg.Metrics = reg
	// Pin both worker pools to sequential: results are identical at any
	// width, but the runs.sequential/runs.parallel counters record which
	// path executed, and the golden file must not depend on core count.
	scfg.Workers = 1
	s := sim.New(w, tbl, faults.NewSchedule(fs), scfg)
	cfg := DefaultConfig()
	cfg.Metrics = reg
	cfg.Workers = 1
	p := NewSim(s, cfg)
	p.Warmup(0, netmodel.BucketsPerDay)

	totals := make(map[core.Blame]int)
	tickets := 0
	p.Run(netmodel.BucketsPerDay, horizon, func(rep *Report) {
		for _, r := range rep.Results {
			totals[r.Blame]++
		}
		tickets += len(rep.Tickets)
	})
	incidents := p.Flush()

	snap := p.Metrics.Snapshot()
	got := goldenReport{
		Verdicts:  make(map[string]int),
		Tickets:   tickets,
		Incidents: incidents,
		Counters:  make(map[string]int64),
	}
	for _, cat := range core.Categories() {
		got.Verdicts[cat.String()] = totals[cat]
	}
	for _, nv := range snap.Counters {
		got.Counters[nv.Name] = nv.Value
	}

	// Internal consistency first: the registry must agree with what the
	// Report callback saw, independent of the golden file's contents.
	for _, cat := range core.Categories() {
		name := "core.verdicts." + cat.String()
		if v, ok := snap.Counter(name); !ok || v != int64(totals[cat]) {
			t.Errorf("%s = %d, callback saw %d", name, v, totals[cat])
		}
	}
	if v, _ := snap.Counter("alerting.tickets.emitted"); v != int64(tickets) {
		t.Errorf("alerting.tickets.emitted = %d, callback saw %d tickets", v, tickets)
	}
	if v, _ := snap.Counter("pipeline.jobs.runs"); v != int64(netmodel.BucketsPerDay/p.Cfg.RunEvery) {
		t.Errorf("pipeline.jobs.runs = %d, want %d", v, netmodel.BucketsPerDay/p.Cfg.RunEvery)
	}

	path := filepath.Join("testdata", "golden_medium.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (run with -update to create): %v", err)
	}
	var want goldenReport
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if !reflect.DeepEqual(got.Verdicts, want.Verdicts) {
		t.Errorf("verdict counts diverged from golden:\n got  %v\n want %v", got.Verdicts, want.Verdicts)
	}
	if got.Tickets != want.Tickets {
		t.Errorf("tickets = %d, golden %d", got.Tickets, want.Tickets)
	}
	if got.Incidents != want.Incidents {
		t.Errorf("incidents = %d, golden %d", got.Incidents, want.Incidents)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		for name, v := range got.Counters {
			if wv, ok := want.Counters[name]; !ok {
				t.Errorf("counter %s = %d not in golden", name, v)
			} else if v != wv {
				t.Errorf("counter %s = %d, golden %d", name, v, wv)
			}
		}
		for name := range want.Counters {
			if _, ok := got.Counters[name]; !ok {
				t.Errorf("golden counter %s missing from run", name)
			}
		}
	}
}
