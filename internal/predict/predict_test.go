package predict

import (
	"math"
	"testing"

	"blameit/internal/netmodel"
)

const key = netmodel.MiddleKey("c1|2001")

func TestExpectedRemainingDeterministicDistribution(t *testing.T) {
	// All incidents last exactly 10 buckets. Having lasted 4, the expected
	// remainder is exactly 6.
	p := NewDurationPredictor(1)
	for i := 0; i < 50; i++ {
		p.Record(key, 10)
	}
	got := p.ExpectedRemaining(key, 4)
	if math.Abs(got-6) > 1e-9 {
		t.Errorf("expected remaining = %v, want 6", got)
	}
}

func TestExpectedRemainingMixture(t *testing.T) {
	// Half the incidents last 1 bucket, half last 21. Given an issue has
	// already lasted 2 buckets, it must be one of the long ones: remaining
	// = 19.
	p := NewDurationPredictor(1)
	for i := 0; i < 100; i++ {
		p.Record(key, 1)
		p.Record(key, 21)
	}
	got := p.ExpectedRemaining(key, 2)
	if math.Abs(got-19) > 1e-9 {
		t.Errorf("conditional remaining = %v, want 19", got)
	}
	// At t=1 the expectation mixes both populations:
	// E = sum_{T>=1} P(D >= 1+T)/P(D >= 1) = (20 long-bucket survivors)/2 = 10.
	got = p.ExpectedRemaining(key, 1)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("mixture remaining at t=1 = %v, want 10", got)
	}
}

func TestLongLivedSeparation(t *testing.T) {
	// The paper only needs long-lived issues to rank above fleeting ones.
	p := NewDurationPredictor(1)
	for i := 0; i < 60; i++ {
		p.Record(key, 1)
	}
	for i := 0; i < 8; i++ {
		p.Record(key, 30)
	}
	early := p.ExpectedRemaining(key, 1)
	lasted := p.ExpectedRemaining(key, 5)
	if lasted <= early {
		t.Errorf("an issue that survived 5 buckets must have higher expected remainder (%v vs %v)", lasted, early)
	}
}

func TestPerKeyFallsBackToGlobal(t *testing.T) {
	p := NewDurationPredictor(5)
	other := netmodel.MiddleKey("c2|2002")
	for i := 0; i < 100; i++ {
		p.Record(other, 12)
	}
	// key has too little history (< minPerKey): use global.
	p.Record(key, 2)
	got := p.ExpectedRemaining(key, 4)
	if math.Abs(got-8) > 1e-9 {
		t.Errorf("global fallback remaining = %v, want 8", got)
	}
}

func TestExpectedRemainingNoHistory(t *testing.T) {
	p := NewDurationPredictor(1)
	if got := p.ExpectedRemaining(key, 3); got != 1 {
		t.Errorf("no-history remaining = %v, want 1", got)
	}
}

func TestExpectedRemainingBeyondObserved(t *testing.T) {
	p := NewDurationPredictor(1)
	p.Record(key, 5)
	// Lasted longer than anything observed on the key or globally.
	if got := p.ExpectedRemaining(key, 50); got != 1 {
		t.Errorf("beyond-observed remaining = %v, want fallback 1", got)
	}
}

func TestProbLastsAtLeast(t *testing.T) {
	p := NewDurationPredictor(1)
	for i := 0; i < 75; i++ {
		p.Record(key, 1)
	}
	for i := 0; i < 25; i++ {
		p.Record(key, 10)
	}
	if got := p.ProbLastsAtLeast(2); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("P(D>=2) = %v, want 0.25", got)
	}
	if got := p.ProbLastsAtLeast(1); got != 1 {
		t.Errorf("P(D>=1) = %v, want 1", got)
	}
	if p.Incidents() != 100 {
		t.Errorf("incidents = %d", p.Incidents())
	}
	if NewDurationPredictor(1).ProbLastsAtLeast(1) != 0 {
		t.Error("empty predictor must report 0")
	}
}

func TestDurationClamping(t *testing.T) {
	p := NewDurationPredictor(1)
	p.Record(key, 0)     // clamps to 1
	p.Record(key, 99999) // clamps to maxDuration
	if p.Incidents() != 2 {
		t.Error("clamped durations lost")
	}
	if p.ProbLastsAtLeast(maxDuration) != 0.5 {
		t.Error("overlong duration not clamped into histogram")
	}
}

// clientPredictorFor returns an empty client predictor over a key space
// holding k, and k's ID there.
func clientPredictorFor(k netmodel.MiddleKey) (*ClientPredictor, netmodel.KeyID) {
	var keys netmodel.KeySpace
	keys.Intern("c0|1")
	id := keys.Intern(k)
	return NewClientPredictor(&keys), id
}

func TestClientPredictorSameWindowAverage(t *testing.T) {
	p, id := clientPredictorFor(key)
	of := 100 // bucket-of-day
	// Days 0,1,2 saw 30, 60, 90 clients in this window.
	for day := 0; day < 3; day++ {
		b := netmodel.Bucket(day*netmodel.BucketsPerDay + of)
		p.Record(id, b, 30*(day+1))
	}
	b := netmodel.Bucket(3*netmodel.BucketsPerDay + of)
	if got := p.Predict(key, b); math.Abs(got-60) > 1e-9 {
		t.Errorf("predict = %v, want 60", got)
	}
}

func TestClientPredictorIgnoresOtherWindows(t *testing.T) {
	p, id := clientPredictorFor(key)
	// Record a large count in a different window of the previous day.
	p.Record(id, netmodel.Bucket(0*netmodel.BucketsPerDay+50), 1000)
	p.Record(id, netmodel.Bucket(0*netmodel.BucketsPerDay+100), 20)
	got := p.Predict(key, netmodel.Bucket(1*netmodel.BucketsPerDay+100))
	if math.Abs(got-20) > 1e-9 {
		t.Errorf("predict = %v, want 20 (same window only)", got)
	}
}

func TestClientPredictorAccumulatesWithinBucket(t *testing.T) {
	p, id := clientPredictorFor(key)
	b0 := netmodel.Bucket(100)
	p.Record(id, b0, 10)
	p.Record(id, b0, 15) // second record in the same bucket adds up
	got := p.Predict(key, netmodel.Bucket(netmodel.BucketsPerDay+100))
	if math.Abs(got-25) > 1e-9 {
		t.Errorf("predict = %v, want 25", got)
	}
}

func TestClientPredictorFallbacks(t *testing.T) {
	p, id := clientPredictorFor(key)
	if p.Predict(key, 100) != 0 {
		t.Error("unknown key must predict 0")
	}
	if p.Predict("am|c1|a2|m3", 100) != 0 {
		t.Error("a key outside the key space must predict 0")
	}
	// Only current-day history: fall back to overall mean.
	p.Record(id, 10, 40)
	p.Record(id, 11, 20)
	got := p.Predict(key, 12)
	if math.Abs(got-30) > 1e-9 {
		t.Errorf("fallback predict = %v, want 30", got)
	}
}

func TestClientPredictorRingReuse(t *testing.T) {
	p, id := clientPredictorFor(key)
	of := 7
	// Day 0 had 100 clients; day 3 overwrites slot 0 with 10.
	p.Record(id, netmodel.Bucket(0*netmodel.BucketsPerDay+of), 100)
	p.Record(id, netmodel.Bucket(3*netmodel.BucketsPerDay+of), 10)
	// Predicting day 4 must use day 3 only (days 1,2 unrecorded, day 0 evicted).
	got := p.Predict(key, netmodel.Bucket(4*netmodel.BucketsPerDay+of))
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("predict = %v, want 10 (day 0 must be evicted)", got)
	}
}
