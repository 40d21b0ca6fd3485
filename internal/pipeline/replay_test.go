package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/probe"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// replayWorkload pins the seeds and fault mix of the replay-equivalence
// tests: the medium-scale world with a random workload plus the marker
// cloud fault, over a half-day warmup and a half-day run — long enough for
// quartet classification, middle issues, active probing, and alerting to
// all fire, short enough for three full pipeline runs in one test.
const (
	replayWarmup  = netmodel.Bucket(netmodel.BucketsPerDay / 2)
	replayHorizon = netmodel.Bucket(netmodel.BucketsPerDay)
)

// replaySim builds one fresh simulator for the replay workload. Every call
// returns an identical-but-independent instance; live and replay runs must
// not share one (the engine's probe counters would interleave).
func replaySim(scale topology.Scale, workers int) *sim.Simulator {
	w := topology.Generate(scale, 7)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), replayHorizon, 8).Faults
	fs = append(fs, faults.Fault{
		Kind: faults.CloudFault, Cloud: w.CloudsInRegion(netmodel.RegionIndia)[0], ScopeCloud: faults.NoCloud,
		Start: replayWarmup + 2*netmodel.BucketsPerHour, Duration: 12, ExtraMS: 80,
	})
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), replayHorizon, 9)
	scfg := sim.DefaultConfig(10)
	scfg.Workers = workers
	return sim.New(w, tbl, faults.NewSchedule(fs), scfg)
}

// canonicalStream runs a pipeline over the replay workload and returns the
// concatenated CanonicalJSON of every report — the byte stream two
// equivalent runs must agree on.
func canonicalStream(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	if err := p.Warmup(0, replayWarmup); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	var out bytes.Buffer
	err := p.Run(replayWarmup, replayHorizon, func(rep *Report) {
		buf, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonicalize report: %v", err)
		}
		out.Write(buf)
		out.WriteByte('\n')
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.Bytes()
}

// writeReplayTrace generates the workload's full observation trace (warmup
// included) as a JSONL file, exactly as blameit-tracegen would.
func writeReplayTrace(t *testing.T, scale topology.Scale) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := replaySim(scale, 1)
	var buf []trace.Observation
	for b := netmodel.Bucket(0); b < replayHorizon; b++ {
		buf = s.ObservationsAt(b, buf[:0])
		if err := trace.WriteJSONL(f, buf); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestGoldenReplayEquivalence is the acceptance gate for blameit -replay:
// replaying a recorded medium-scale JSONL trace through the streaming
// source — with probes still served by the deterministic engine, as the
// CLI does — must reproduce the live-sim run's report/ticket stream byte
// for byte, at Workers 1 and 4.
func TestGoldenReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale replay equivalence in -short mode")
	}
	scale := topology.MediumScale()
	cfg := DefaultConfig()
	cfg.Workers = 1
	want := canonicalStream(t, NewSim(replaySim(scale, 1), cfg))
	if len(want) == 0 {
		t.Fatal("live run produced no reports")
	}
	tracePath := writeReplayTrace(t, scale)

	for _, workers := range []int{1, 4} {
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		s := replaySim(scale, workers) // serves probes only
		deps := Deps{
			World:  s.World,
			Table:  s.Routes,
			Source: ingest.NewStreamSource(f),
			Prober: probe.NewEngine(s, cfg.ProbeNoiseMS),
		}
		rcfg := cfg
		rcfg.Workers = workers
		got := canonicalStream(t, New(deps, rcfg))
		f.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("streaming replay (workers=%d) diverged from the live run: %d vs %d canonical bytes",
				workers, len(got), len(want))
		}
	}
}

// TestFullDecouplingReplayWithoutSimulator closes the loop on the
// refactor's goal: record a live run's probes, then replay the observation
// trace AND the probe log through a pipeline that holds no simulator at
// all (stream source + probe replayer) — output must stay byte-identical.
func TestFullDecouplingReplayWithoutSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("replay integration in -short mode")
	}
	scale := topology.SmallScale()
	cfg := DefaultConfig()
	cfg.Workers = 1

	// Live run with probe recording.
	s := replaySim(scale, 1)
	deps := SimDeps(s, cfg.ProbeNoiseMS)
	rec := probe.NewRecorder(deps.Prober)
	deps.Prober = rec
	want := canonicalStream(t, New(deps, cfg))
	if len(want) == 0 {
		t.Fatal("live run produced no reports")
	}
	var probeLog bytes.Buffer
	if err := rec.WriteJSONL(&probeLog); err != nil {
		t.Fatal(err)
	}
	tracePath := writeReplayTrace(t, scale)

	// Replay without a simulator: world and routing are regenerated from
	// their seeds (they are configuration, not telemetry), everything
	// measured comes from the two recordings.
	recs, err := probe.ReadRecordsJSONL(&probeLog)
	if err != nil {
		t.Fatal(err)
	}
	rp := probe.NewReplayer(recs)
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := topology.Generate(scale, 7)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), replayHorizon, 9)
	got := canonicalStream(t, New(Deps{
		World:  w,
		Table:  tbl,
		Source: ingest.NewStreamSource(f),
		Prober: rp,
	}, cfg))
	if !bytes.Equal(got, want) {
		t.Fatalf("simulator-free replay diverged: %d vs %d canonical bytes", len(got), len(want))
	}
	if rp.Misses() != 0 {
		t.Errorf("replayer missed %d probe requests", rp.Misses())
	}
}

// TestRunContextCancellation: cancelling mid-run stops between buckets and
// surfaces context.Canceled; completed reports already delivered stay
// valid.
func TestRunContextCancellation(t *testing.T) {
	p := buildPipeline(t, nil, 1, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	reports := 0
	err := p.RunContext(ctx, dayStart, dayStart+netmodel.BucketsPerDay, func(rep *Report) {
		reports++
		if reports == 2 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reports != 2 {
		t.Fatalf("callback ran %d times after cancellation at 2", reports)
	}
}
