package server

import (
	"bytes"
	"net/http"
	"testing"

	"blameit/internal/netmodel"
)

// TestGracefulShutdownDrainsInFlightWindow: a drain arriving mid-window
// (the SIGTERM path) steps every queued bucket, flushes the partial
// window as a final report, and exits cleanly — without fabricating
// probe-infrastructure-failure (Degraded) verdicts out of the shutdown
// itself.
func TestGracefulShutdownDrainsInFlightWindow(t *testing.T) {
	warmup := netmodel.Bucket(netmodel.BucketsPerHour)
	e := newTestEnv(t, func(c *Config) { c.WarmupBuckets = warmup })

	// Push buckets 0..16: the stream seals through 15, so the backend
	// warms up over [0,12), steps 12..15 (job report at 14), and leaves
	// bucket 15 in the accumulating window with bucket 16 still queued.
	var batch bytes.Buffer
	last := warmup + 4 // bucket 16
	n16 := 0           // records in the last (still unsealed) bucket
	var probeLine []byte
	for b := netmodel.Bucket(0); b <= last; b++ {
		obs := e.bucketObs(b)
		if b == 0 {
			probeLine = jsonlBody(t, obs[:1])
		}
		if b == last {
			n16 = len(obs)
		}
		batch.Write(jsonlBody(t, obs))
	}
	if status, body := e.post(t, "/v1/ingest", batch.Bytes()); status != http.StatusAccepted {
		t.Fatalf("POST = %d (%s), want 202", status, body)
	}
	waitFor(t, "backend to consume through bucket 15", func() bool {
		_, h := e.health(t)
		return h.Reports >= 1 && h.QueueDepth == n16
	})

	e.shutdown(t) // fails the test if the backend surfaced an error

	if got := e.srv.Reports(); got != 2 {
		t.Fatalf("reports after drain = %d, want 2 (the cadence report and the flushed window)", got)
	}
	final, ok := e.srv.reports.latest()
	if !ok {
		t.Fatal("no final report retained")
	}
	if final.from != warmup+3 || final.to != last {
		t.Errorf("flushed window = [%d, %d], want [%d, %d]", final.from, final.to, warmup+3, last)
	}
	e.srv.reports.each(func(sr *storedReport) {
		for _, v := range sr.verdicts {
			if v.Degraded {
				t.Errorf("report [%d, %d] carries a Degraded verdict fabricated during shutdown: %+v",
					sr.from, sr.to, v)
			}
		}
	})
	status, h := e.health(t)
	if status != http.StatusOK || h.Backend != "stopped" {
		t.Errorf("healthz after drain = %d backend=%q, want 200 stopped", status, h.Backend)
	}
	if st, _ := e.post(t, "/v1/ingest", probeLine); st != http.StatusServiceUnavailable {
		t.Errorf("ingest after shutdown = %d, want 503", st)
	}
}

// TestShutdownOnCadenceBoundaryAddsNoReport: when the drain lands
// exactly on the job cadence the window is empty, and finalization must
// not fabricate an extra (empty) report.
func TestShutdownOnCadenceBoundaryAddsNoReport(t *testing.T) {
	warmup := netmodel.Bucket(netmodel.BucketsPerHour)
	e := newTestEnv(t, func(c *Config) { c.WarmupBuckets = warmup })

	// Push buckets 0..14: the stream seals through 13; the drain steps
	// the queued bucket 14, which closes the job window [12,14] exactly
	// on cadence (RunEvery=3), leaving nothing to flush.
	var batch bytes.Buffer
	for b := netmodel.Bucket(0); b <= warmup+2; b++ {
		batch.Write(jsonlBody(t, e.bucketObs(b)))
	}
	if status, body := e.post(t, "/v1/ingest", batch.Bytes()); status != http.StatusAccepted {
		t.Fatalf("POST = %d (%s), want 202", status, body)
	}
	e.shutdown(t)

	if got := e.srv.Reports(); got != 1 {
		t.Fatalf("reports after cadence-aligned drain = %d, want exactly 1", got)
	}
	final, _ := e.srv.reports.latest()
	if final.from != warmup || final.to != warmup+2 {
		t.Errorf("report window = [%d, %d], want [%d, %d]", final.from, final.to, warmup, warmup+2)
	}
}
