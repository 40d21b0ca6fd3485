package server

import (
	"bufio"
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// The service equivalence test replays the same workload the batch
// replay-equivalence gate in internal/pipeline uses: the medium-scale
// world with a random fault mix plus a marker cloud fault, half a day of
// warmup and half a day of localization.
const (
	replayWarmup  = netmodel.Bucket(netmodel.BucketsPerDay / 2)
	replayHorizon = netmodel.Bucket(netmodel.BucketsPerDay)
)

// replaySimFor builds one fresh simulator for the replay workload; live
// and service runs must not share an instance.
func replaySimFor(scale topology.Scale, workers int) *sim.Simulator {
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

// canonicalRun warms p up over [0, warmup), runs it to horizon and returns
// the reports as canonical JSON lines — the stream collectCanonical
// rebuilds from a daemon's read APIs.
func canonicalRun(t *testing.T, p *pipeline.Pipeline, warmup, horizon netmodel.Bucket) []byte {
	t.Helper()
	if err := p.Warmup(0, warmup); err != nil {
		t.Fatalf("batch warmup: %v", err)
	}
	var out bytes.Buffer
	err := p.Run(warmup, horizon, func(rep *pipeline.Report) {
		buf, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonicalize report: %v", err)
		}
		out.Write(buf)
		out.WriteByte('\n')
	})
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	return out.Bytes()
}

// batchCanonicalStream is the reference: the batch CLI's live run over
// the workload, reports concatenated as canonical JSON lines.
func batchCanonicalStream(t *testing.T, scale topology.Scale) []byte {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Workers = 1
	return canonicalRun(t, pipeline.NewSim(replaySimFor(scale, 1), cfg), replayWarmup, replayHorizon)
}

// writeServiceTrace records the workload's full observation trace
// (warmup included) as a JSONL file, exactly as blameit-tracegen would.
func writeServiceTrace(t *testing.T, scale topology.Scale) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := replaySimFor(scale, 1)
	var buf []trace.Observation
	for b := netmodel.Bucket(0); b < replayHorizon; b++ {
		buf = s.ObservationsAt(b, buf[:0])
		if err := trace.WriteJSONL(f, buf); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// serviceCanonicalStream replays the recorded trace over HTTP into a
// live daemon — batched POSTs, a final seal, a graceful drain — and
// rebuilds the canonical report stream from the read APIs.
func serviceCanonicalStream(t *testing.T, scale topology.Scale, tracePath string, workers int) []byte {
	t.Helper()
	s := replaySimFor(scale, workers) // serves probes only
	pcfg := pipeline.DefaultConfig()
	pcfg.Workers = workers
	srv, err := New(pipeline.Deps{
		World:  s.World,
		Table:  s.Routes,
		Prober: probe.NewEngine(s, pcfg.ProbeNoiseMS),
	}, Config{Pipeline: pcfg, WarmupBuckets: replayWarmup})
	if err != nil {
		t.Fatalf("server.New (workers=%d): %v", workers, err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const batchLines = 8192
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var batch bytes.Buffer
	lines := 0
	flush := func() {
		if lines == 0 {
			return
		}
		postWithRetry(t, client, ts.URL+"/v1/ingest", batch.Bytes())
		batch.Reset()
		lines = 0
	}
	for sc.Scan() {
		batch.Write(sc.Bytes())
		batch.WriteByte('\n')
		if lines++; lines >= batchLines {
			flush()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning trace: %v", err)
	}
	flush()

	// Seal the final bucket (no later record arrives to do it implicitly),
	// then drain: the backend steps everything queued and exits cleanly.
	status, body := postSeal(t, client, ts.URL, replayHorizon-1)
	if status != 202 {
		t.Fatalf("seal = %d (%s), want 202", status, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown (workers=%d): %v", workers, err)
	}
	return collectCanonical(t, client, ts.URL)
}

// TestServiceReplayEquivalence is the acceptance gate for blameitd: a
// trace replayed over HTTP into the live daemon must produce reports
// byte-identical to the batch CLI's run over the same telemetry, at
// job parallelism 1 and 4. This is the control-inversion proof — the
// event-driven step-on-seal backend and the pull-driven batch loop are
// the same pipeline.
func TestServiceReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale service equivalence in -short mode")
	}
	scale := topology.MediumScale()
	want := batchCanonicalStream(t, scale)
	if len(want) == 0 {
		t.Fatal("batch run produced no reports")
	}
	tracePath := writeServiceTrace(t, scale)
	for _, workers := range []int{1, 4} {
		got := serviceCanonicalStream(t, scale, tracePath, workers)
		if !bytes.Equal(got, want) {
			t.Fatalf("HTTP service replay (workers=%d) diverged from the batch run: %d vs %d canonical bytes",
				workers, len(got), len(want))
		}
	}
}
