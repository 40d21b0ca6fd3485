package pipeline

import (
	"bytes"
	"context"
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
// test: a random workload plus the marker cloud fault, over a half-day
// warmup and a half-day run — long enough for quartet classification,
// middle issues, active probing, and alerting to all fire.
const (
	replayWarmup  = netmodel.Bucket(netmodel.BucketsPerDay / 2)
	replayHorizon = netmodel.Bucket(netmodel.BucketsPerDay)
)

// replaySim builds one fresh simulator for the replay workload. Every call
// returns an identical-but-independent instance; live and replay runs must
// not share one (the engine's probe counters would interleave).
func replaySim(scale topology.Scale) *sim.Simulator {
	w := topology.Generate(scale, 7)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), replayHorizon, 8).Faults
	fs = append(fs, faults.Fault{
		Kind: faults.CloudFault, Cloud: w.CloudsInRegion(netmodel.RegionIndia)[0], ScopeCloud: faults.NoCloud,
		Start: replayWarmup + 2*netmodel.BucketsPerHour, Duration: 12, ExtraMS: 80,
	})
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), replayHorizon, 9)
	return sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(10))
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

// replayTrace generates the workload's full observation trace (warmup
// included) as JSONL, exactly as blameit-tracegen -o would write it.
func replayTrace(t *testing.T, scale topology.Scale) []byte {
	t.Helper()
	var out bytes.Buffer
	s := replaySim(scale)
	var buf []trace.Observation
	for b := netmodel.Bucket(0); b < replayHorizon; b++ {
		buf = s.ObservationsAt(b, buf[:0])
		if err := trace.WriteJSONL(&out, buf); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestFullDecouplingReplayWithoutSimulator closes the loop on the
// refactor's goal: record a live run's probes, then replay the observation
// trace AND the probe log through a pipeline that holds no simulator at
// all — the trace decoded by DecodeBatch, the daemon's reader, and served
// bucket by bucket; probes from the replayer — and the output must stay
// byte-identical.
func TestFullDecouplingReplayWithoutSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("replay integration in -short mode")
	}
	scale := topology.SmallScale()
	cfg := DefaultConfig()
	cfg.Workers = 1

	// Live run with probe recording.
	s := replaySim(scale)
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
	obs, err := ingest.DecodeBatch(replayTrace(t, scale), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	byBucket := make(map[netmodel.Bucket][]trace.Observation)
	for _, o := range obs {
		byBucket[o.Bucket] = append(byBucket[o.Bucket], o)
	}

	// Replay without a simulator: world and routing are regenerated from
	// their seeds (they are configuration, not telemetry), everything
	// measured comes from the two recordings.
	recs, err := probe.ReadRecordsJSONL(&probeLog)
	if err != nil {
		t.Fatal(err)
	}
	rp := probe.NewReplayer(recs)
	w := topology.Generate(scale, 7)
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), replayHorizon, 9)
	got := canonicalStream(t, New(Deps{
		World: w,
		Table: tbl,
		Source: ingest.SourceFunc(func(b netmodel.Bucket, buf []trace.Observation) []trace.Observation {
			return append(buf, byBucket[b]...)
		}),
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
