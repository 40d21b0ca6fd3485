package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// opts returns a small, fast option set tests tweak per case.
func opts() options {
	return options{
		scaleName: "small", seed: 1, days: 1, warmup: 1,
		workload: "random", budget: 0, topN: 5, workers: 1,
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	o := opts()
	o.scaleName = "nope"
	if err := run(ctx, o); err == nil {
		t.Error("bad scale accepted")
	}
	o = opts()
	o.days = 0
	if err := run(ctx, o); err == nil {
		t.Error("zero days accepted")
	}
	o = opts()
	o.workload = "martian"
	if err := run(ctx, o); err == nil {
		t.Error("bad workload accepted")
	}
	o = opts()
	o.replayPath = "testdata/definitely-missing.jsonl"
	if err := run(ctx, o); err == nil {
		t.Error("missing replay file accepted")
	}
	o = opts()
	o.chaosName = "catastrophic"
	if err := run(ctx, o); err == nil || !strings.Contains(err.Error(), "catastrophic") {
		t.Errorf("bad chaos profile: err = %v, want it named", err)
	}
	o = opts()
	o.workers = -1
	if err := run(ctx, o); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("negative workers: err = %v, want a Workers validation error", err)
	}
}

func TestRunChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI run in -short mode")
	}
	o := options{
		scaleName: "small", seed: 7, days: 1, warmup: 1,
		workload: "none", budget: 10, topN: 3, workers: 1, chaosName: "heavy",
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("chaos run: %v", err)
	}
}

// writeTrace writes a bucket-ordered JSONL trace covering [0, horizon).
func writeTrace(t *testing.T, path string, horizon netmodel.Bucket, extraLine string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var obs []trace.Observation
	for b := netmodel.Bucket(0); b < horizon; b++ {
		obs = append(obs, trace.Observation{Prefix: 0, Cloud: 0, Bucket: b, Samples: 40, MeanRTT: 50, Clients: 10})
	}
	if err := trace.WriteJSONL(f, obs); err != nil {
		t.Fatal(err)
	}
	if extraLine != "" {
		if _, err := f.WriteString(extraLine + "\n"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunReplayTruncatedExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI run in -short mode")
	}
	path := filepath.Join(t.TempDir(), "short.jsonl")
	// One warmup + one run day need 576 buckets; provide only 100.
	writeTrace(t, path, 100, "")
	o := opts()
	o.replayPath = path
	err := run(context.Background(), o)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated replay: err = %v, want a truncation error", err)
	}
}

func TestRunReplayQuarantinedExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI run in -short mode")
	}
	path := filepath.Join(t.TempDir(), "mangled.jsonl")
	horizon := netmodel.Bucket(2 * netmodel.BucketsPerDay)
	writeTrace(t, path, horizon, `{"prefix": not-json`)
	o := opts()
	o.replayPath = path
	err := run(context.Background(), o)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("mangled replay: err = %v, want a quarantine error", err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI run in -short mode")
	}
	// One warmup day plus one quiet day; output goes to stdout, which the
	// test harness captures.
	o := options{
		scaleName: "small", seed: 7, days: 1, warmup: 1,
		workload: "none", budget: 10, topN: 3, workers: 1, dumpMetrics: true,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI run in -short mode")
	}
	// A pre-cancelled context must not error out: the CLI treats Canceled
	// as a clean early stop wherever it lands (here, during warmup).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := options{
		scaleName: "small", seed: 7, days: 1, warmup: 1,
		workload: "none", budget: 10, topN: 3, workers: 1,
	}
	if err := run(ctx, o); err != nil {
		t.Fatalf("cancelled run returned error: %v", err)
	}
}
