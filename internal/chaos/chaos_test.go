package chaos

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/probe"
	"blameit/internal/trace"
)

const testPrefixes = 50

// fixedSource emits nPer records for every requested bucket.
type fixedSource struct {
	nPer  int
	calls int
}

func (f *fixedSource) ObservationsAt(_ context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	f.calls++
	out := buf[:0]
	for i := 0; i < f.nPer; i++ {
		out = append(out, trace.Observation{
			Prefix: netmodel.PrefixID(i % testPrefixes), Cloud: netmodel.CloudID(i % 3),
			Device: netmodel.DeviceClass(i % 2), Bucket: b,
			Samples: 40, MeanRTT: 50 + float64(i), Clients: 10,
		})
	}
	return out, nil
}

// drain runs the chaos source over [0, horizon) through a quarantine,
// retrying transient errors like the pipeline does, and returns the
// quarantine plus the total records that survived filtering.
func drain(t *testing.T, s *Source, q *ingest.Quarantine, horizon netmodel.Bucket) (kept int) {
	t.Helper()
	var buf []trace.Observation
	for b := netmodel.Bucket(0); b < horizon; b++ {
		var err error
		for attempt := 0; ; attempt++ {
			buf, err = s.ObservationsAt(context.Background(), b, buf[:0])
			if err == nil {
				break
			}
			if !ingest.IsTransient(err) || attempt > 2 {
				t.Fatalf("bucket %d: non-transient or persistent error: %v", b, err)
			}
		}
		buf = q.Filter(b, buf)
		kept += len(buf)
	}
	return kept
}

func TestSourceDeterministic(t *testing.T) {
	cfg := Heavy(7)
	run := func() (SourceStats, [4]int64) {
		q := ingest.NewQuarantine(testPrefixes, 3)
		s := NewSource(&fixedSource{nPer: 30}, cfg, testPrefixes)
		drain(t, s, q, 100)
		var counts [4]int64
		for r := ingest.Reason(0); int(r) < 4; r++ {
			counts[r] = q.Count(r)
		}
		return s.Stats(), counts
	}
	st1, q1 := run()
	st2, q2 := run()
	if st1 != st2 || q1 != q2 {
		t.Errorf("two identical chaos runs diverged:\n%+v %v\n%+v %v", st1, q1, st2, q2)
	}
	if st1.Corrupted == 0 || st1.Held == 0 || st1.Duplicated == 0 || st1.TransientErrs == 0 || st1.DroppedBatches == 0 {
		t.Errorf("heavy profile injected nothing for some fault class: %+v", st1)
	}
}

// TestSourceAccounting: every record the source injures must show up in
// exactly one quarantine bin — the books balance.
func TestSourceAccounting(t *testing.T) {
	cfg := Heavy(3)
	q := ingest.NewQuarantine(testPrefixes, 3)
	s := NewSource(&fixedSource{nPer: 40}, cfg, testPrefixes)
	kept := drain(t, s, q, 200)
	st := s.Stats()

	if got := q.Count(ingest.ReasonCorrupt); got != st.Corrupted {
		t.Errorf("corrupt: injected %d, quarantined %d", st.Corrupted, got)
	}
	if got := q.Count(ingest.ReasonLate); got != st.LateDelivered {
		t.Errorf("late: delivered %d, quarantined %d", st.LateDelivered, got)
	}
	if got := q.Count(ingest.ReasonDuplicate); got != st.Duplicated {
		t.Errorf("duplicate: injected %d, quarantined %d", st.Duplicated, got)
	}
	if got := int64(s.PendingLate()); got != st.Held-st.LateDelivered {
		t.Errorf("pending late = %d, want held-delivered = %d", got, st.Held-st.LateDelivered)
	}
	wantKept := st.Read - st.DroppedRecords - st.Corrupted - st.Held
	if int64(kept) != wantKept {
		t.Errorf("kept %d records, want read-dropped-corrupted-held = %d", kept, wantKept)
	}
}

// TestCorruptionKindsAllQuarantined forces CorruptProb to 1 so every
// mutation kind is exercised, and requires the quarantine to reject all
// of them.
func TestCorruptionKindsAllQuarantined(t *testing.T) {
	cfg := Config{Seed: 1, CorruptProb: 1}
	q := ingest.NewQuarantine(testPrefixes, 3)
	s := NewSource(&fixedSource{nPer: 40}, cfg, testPrefixes)
	kept := drain(t, s, q, 20)
	if kept != 0 {
		t.Errorf("%d corrupt records survived the quarantine", kept)
	}
	st := s.Stats()
	if st.Corrupted != st.Read || q.Count(ingest.ReasonCorrupt) != st.Corrupted {
		t.Errorf("corrupted %d of %d read, quarantined %d", st.Corrupted, st.Read, q.Count(ingest.ReasonCorrupt))
	}
}

// TestLateDeliveryOutOfBucket: held records must come back in a strictly
// later bucket, carrying their original bucket stamp.
func TestLateDeliveryOutOfBucket(t *testing.T) {
	cfg := Config{Seed: 2, LateProb: 0.5, LateMaxDelay: 4}
	s := NewSource(&fixedSource{nPer: 20}, cfg, testPrefixes)
	var buf []trace.Observation
	for b := netmodel.Bucket(0); b < 30; b++ {
		var err error
		buf, err = s.ObservationsAt(context.Background(), b, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range buf {
			if o.Bucket > b {
				t.Fatalf("record from future bucket %d delivered at %d", o.Bucket, b)
			}
			if o.Bucket < b && b-o.Bucket > cfg.LateMaxDelay {
				t.Fatalf("record from bucket %d delivered at %d, beyond max delay %d", o.Bucket, b, cfg.LateMaxDelay)
			}
		}
	}
	st := s.Stats()
	if st.Held == 0 || st.LateDelivered == 0 {
		t.Fatalf("late injection inactive: %+v", st)
	}
}

func TestSourceTransientErrorRetrySucceeds(t *testing.T) {
	cfg := Config{Seed: 5, TransientErrProb: 1} // every bucket's first read fails
	base := &fixedSource{nPer: 5}
	s := NewSource(base, cfg, testPrefixes)
	_, err := s.ObservationsAt(context.Background(), 3, nil)
	if !ingest.IsTransient(err) {
		t.Fatalf("first read returned %v, want a transient error", err)
	}
	out, err := s.ObservationsAt(context.Background(), 3, nil)
	if err != nil || len(out) != 5 {
		t.Fatalf("retry: got %d records, err %v", len(out), err)
	}
	if s.Stats().TransientErrs != 1 {
		t.Errorf("TransientErrs = %d, want 1 (one per bucket)", s.Stats().TransientErrs)
	}
}

func TestSourceLazyMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSource(&fixedSource{nPer: 10}, Config{Seed: 1}, testPrefixes)
	s.SetMetrics(reg)
	if _, err := s.ObservationsAt(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, nv := range reg.Snapshot().Counters {
		if strings.HasPrefix(nv.Name, "chaos.") {
			t.Fatalf("counter %s registered with injection disabled", nv.Name)
		}
	}
	s2 := NewSource(&fixedSource{nPer: 10}, Config{Seed: 1, CorruptProb: 1}, testPrefixes)
	s2.SetMetrics(reg)
	if _, err := s2.ObservationsAt(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Snapshot().Counter("chaos.source.corrupted"); !ok || v != 10 {
		t.Errorf("chaos.source.corrupted = %d (ok=%v), want 10", v, ok)
	}
}

// steadyProber returns a fixed 3-hop traceroute.
type steadyProber struct {
	counters probe.Counters
	calls    int
}

func (s *steadyProber) Traceroute(c netmodel.CloudID, p netmodel.PrefixID, b netmodel.Bucket, purpose probe.Purpose) probe.Traceroute {
	s.calls++
	return probe.Traceroute{Cloud: c, Prefix: p, Bucket: b, Hops: []probe.Hop{
		{AS: 100, Segment: netmodel.SegCloud, CumulativeMS: 5},
		{AS: 101, Segment: netmodel.SegMiddle, CumulativeMS: 25},
		{AS: 102, Segment: netmodel.SegClient, CumulativeMS: 33},
	}}
}

func (s *steadyProber) Counters() *probe.Counters { return &s.counters }

func TestProberInjectsFailuresDeterministically(t *testing.T) {
	cfg := Config{Seed: 9, ProbeFailProb: 0.3}
	run := func() (ProberStats, int) {
		cp := NewProber(&steadyProber{}, cfg)
		fails := 0
		for b := netmodel.Bucket(0); b < 50; b++ {
			for p := netmodel.PrefixID(0); p < 10; p++ {
				if _, err := cp.TracerouteErr(context.Background(), 1, p, b, probe.OnDemand); err != nil {
					fails++
				}
			}
		}
		return cp.Stats(), fails
	}
	st1, f1 := run()
	st2, f2 := run()
	if st1 != st2 || f1 != f2 {
		t.Errorf("chaos prober not deterministic: %+v/%d vs %+v/%d", st1, f1, st2, f2)
	}
	if st1.FailuresInjected == 0 || int64(f1) != st1.FailuresInjected {
		t.Errorf("failures %d, errors seen %d", st1.FailuresInjected, f1)
	}
	// 30% of 500 probes: expect failures in a broad band around 150.
	if f1 < 100 || f1 > 200 {
		t.Errorf("failure count %d far from the 30%% rate", f1)
	}
}

// TestProberRetriesRollIndependently: a failed attempt followed by a
// retry of the same probe must make a fresh decision, so a retrying
// caller usually recovers.
func TestProberRetriesRollIndependently(t *testing.T) {
	cfg := Config{Seed: 4, ProbeFailProb: 0.5}
	cp := NewProber(&steadyProber{}, cfg)
	recovered := 0
	for p := netmodel.PrefixID(0); p < 100; p++ {
		if _, err := cp.TracerouteErr(context.Background(), 1, p, 10, probe.OnDemand); err == nil {
			continue
		}
		// Retry the identical probe; at 50% it should often succeed.
		if _, err := cp.TracerouteErr(context.Background(), 1, p, 10, probe.OnDemand); err == nil {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no retried probe ever recovered — attempts are not rolled independently")
	}
}

func TestProberTruncation(t *testing.T) {
	cfg := Config{Seed: 6, TruncateProb: 1}
	cp := NewProber(&steadyProber{}, cfg)
	tr, err := cp.TracerouteErr(context.Background(), 1, 2, 10, probe.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Hops) == 0 || len(tr.Hops) >= 3 {
		t.Fatalf("truncated traceroute has %d hops, want a strict nonempty prefix of 3", len(tr.Hops))
	}
	// A truncated probe must be unusable, not mislocalized.
	full := (&steadyProber{}).Traceroute(1, 2, 0, probe.Background)
	if res := probe.Compare(tr, full); res.OK {
		t.Errorf("truncated traceroute localized: %+v", res)
	}
	if cp.Stats().Truncated != 1 {
		t.Errorf("Truncated = %d, want 1", cp.Stats().Truncated)
	}
}

// TestProberWrappedByRetrier: the chaos prober implements ErrProber, so
// the retrying wrapper recovers most injected failures end to end.
func TestProberWrappedByRetrier(t *testing.T) {
	base := &steadyProber{}
	cp := NewProber(base, Config{Seed: 11, ProbeFailProb: 0.2})
	rp := probe.NewRetryingProber(cp, probe.RetryConfig{MaxAttempts: 3, BreakerThreshold: -1})
	failed := 0
	for p := netmodel.PrefixID(0); p < 200; p++ {
		if _, err := rp.TracerouteErr(context.Background(), 1, p, 5, probe.OnDemand); err != nil {
			failed++
		}
	}
	// P(3 consecutive failures) = 0.8% — nearly everything recovers.
	if failed > 10 {
		t.Errorf("%d of 200 probes failed through the retrier; injected-fault recovery is broken", failed)
	}
	if rp.Stats().Failures != cp.Stats().FailuresInjected {
		t.Errorf("retrier saw %d failures, injector injected %d", rp.Stats().Failures, cp.Stats().FailuresInjected)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Heavy(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("heavy profile rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative prob", func(c *Config) { c.CorruptProb = -0.1 }},
		{"prob above one", func(c *Config) { c.ProbeFailProb = 1.5 }},
		{"NaN prob", func(c *Config) { c.LateProb = math.NaN() }},
		{"negative delay", func(c *Config) { c.LateMaxDelay = -1 }},
	} {
		cfg := Heavy(1)
		tc.mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}

// errSource always fails fatally; the chaos source must pass base errors
// through untouched.
type errSource struct{}

func (errSource) ObservationsAt(context.Context, netmodel.Bucket, []trace.Observation) ([]trace.Observation, error) {
	return nil, errors.New("base: permanent failure")
}

func TestSourcePropagatesBaseErrors(t *testing.T) {
	s := NewSource(errSource{}, Config{Seed: 1}, testPrefixes)
	_, err := s.ObservationsAt(context.Background(), 0, nil)
	if err == nil || ingest.IsTransient(err) {
		t.Fatalf("base error not passed through verbatim: %v", err)
	}
}
