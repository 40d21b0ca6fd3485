package quartet

import (
	"testing"
	"testing/quick"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

func obs(p int, samples int, rtt float64) trace.Observation {
	return trace.Observation{Prefix: netmodel.PrefixID(p), Cloud: 1, Device: netmodel.NonMobile, Bucket: 5, Samples: samples, MeanRTT: rtt}
}

func TestClassify(t *testing.T) {
	q := Classify(obs(1, 20, 80), 50)
	if !q.Enough || !q.Bad {
		t.Errorf("bad quartet misclassified: %+v", q)
	}
	q = Classify(obs(1, 20, 30), 50)
	if !q.Enough || q.Bad {
		t.Errorf("good quartet misclassified: %+v", q)
	}
	q = Classify(obs(1, 5, 500), 50)
	if q.Enough || q.Bad {
		t.Errorf("insufficient quartet misclassified: %+v", q)
	}
	// Boundary: exactly at target is bad; exactly MinSamples is enough.
	q = Classify(obs(1, MinSamples, 50), 50)
	if !q.Enough || !q.Bad {
		t.Errorf("boundary quartet misclassified: %+v", q)
	}
}

func TestTrackerSingleRun(t *testing.T) {
	tr := newRecorder()
	k := Key{Prefix: 1, Cloud: 2, Device: netmodel.NonMobile}
	tr.Advance(10, []Key{k})
	tr.Advance(11, []Key{k})
	tr.Advance(12, []Key{k})
	tr.Advance(13, nil)
	incs := tr.Flush()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d", len(incs))
	}
	if incs[0].Start != 10 || incs[0].Buckets != 3 || incs[0].End() != 13 {
		t.Errorf("incident = %+v", incs[0])
	}
}

func TestTrackerInterleavedKeys(t *testing.T) {
	tr := newRecorder()
	a := Key{Prefix: 1}
	b := Key{Prefix: 2}
	tr.Advance(0, []Key{a, b})
	tr.Advance(1, []Key{a})
	tr.Advance(2, []Key{a, b})
	incs := tr.Flush()
	if len(incs) != 3 {
		t.Fatalf("incidents = %d: %+v", len(incs), incs)
	}
	var aRun, bRuns int
	for _, inc := range incs {
		if inc.Key == a {
			aRun = inc.Buckets
		} else {
			bRuns++
		}
	}
	if aRun != 3 {
		t.Errorf("key a run = %d, want 3", aRun)
	}
	if bRuns != 2 {
		t.Errorf("key b runs = %d, want 2", bRuns)
	}
}

func TestTrackerGapClosesRuns(t *testing.T) {
	tr := newRecorder()
	k := Key{Prefix: 1}
	tr.Advance(0, []Key{k})
	tr.Advance(5, []Key{k}) // gap: buckets 1-4 missing
	incs := tr.Flush()
	if len(incs) != 2 {
		t.Fatalf("gap should split runs, got %+v", incs)
	}
}

func TestTrackerOpenRun(t *testing.T) {
	tr := newRecorder()
	k := Key{Prefix: 1}
	if tr.OpenRun(k) != 0 {
		t.Error("open run before any badness")
	}
	tr.Advance(0, []Key{k})
	tr.Advance(1, []Key{k})
	if tr.OpenRun(k) != 2 {
		t.Errorf("open run = %d, want 2", tr.OpenRun(k))
	}
	tr.Advance(2, nil)
	if tr.OpenRun(k) != 0 {
		t.Error("open run after recovery")
	}
}

func TestTrackerPanicsOnRewind(t *testing.T) {
	tr := newRecorder()
	tr.Advance(5, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-increasing bucket")
		}
	}()
	tr.Advance(5, nil)
}

func TestKeyOf(t *testing.T) {
	o := obs(9, 20, 30)
	k := KeyOf(o)
	if k.Prefix != 9 || k.Cloud != 1 || k.Device != netmodel.NonMobile {
		t.Errorf("KeyOf = %+v", k)
	}
}

func TestTrackerConservationProperty(t *testing.T) {
	// Property: the sum of closed-run lengths equals the total number of
	// (bucket, key) bad marks fed to the tracker.
	f := func(pattern []uint8) bool {
		tr := newRecorder()
		total := 0
		for i, m := range pattern {
			var bad []Key
			// Up to three keys, active when their bit is set.
			for k := 0; k < 3; k++ {
				if m&(1<<k) != 0 {
					bad = append(bad, Key{Prefix: netmodel.PrefixID(k)})
					total++
				}
			}
			tr.Advance(netmodel.Bucket(i), bad)
		}
		sum := 0
		for _, inc := range tr.Flush() {
			sum += inc.Buckets
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrackerRunsAreMaximalProperty(t *testing.T) {
	// Property: no two closed runs of the same key are adjacent.
	f := func(pattern []bool) bool {
		tr := newRecorder()
		k := Key{Prefix: 1}
		for i, bad := range pattern {
			var keys []Key
			if bad {
				keys = []Key{k}
			}
			tr.Advance(netmodel.Bucket(i), keys)
		}
		incs := tr.Flush()
		for i := 0; i < len(incs); i++ {
			for j := 0; j < len(incs); j++ {
				if i != j && incs[i].End() == incs[j].Start {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// recorder is a Tracker that keeps what it closes, so that Flush returns
// every incident of the run.
type recorder struct {
	*Tracker
	closed []Incident
}

func newRecorder() *recorder { return &recorder{Tracker: NewTracker()} }

func (r *recorder) Advance(b netmodel.Bucket, bad []Key) {
	r.closed = append(r.closed, r.Tracker.Advance(b, bad)...)
}

func (r *recorder) Flush() []Incident { return append(r.closed, r.Tracker.Flush()...) }
