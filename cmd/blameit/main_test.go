package main

import (
	"context"
	"strings"
	"testing"
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
	o.workload = "cases"
	if err := run(ctx, o); err == nil || !strings.Contains(err.Error(), "cases") {
		t.Errorf("-workload cases: err = %v, want it refused by name", err)
	}
	o = opts()
	o.workers = -1
	if err := run(ctx, o); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("negative workers: err = %v, want a Workers validation error", err)
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
