package core

import (
	"math"
	"math/rand"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/stats"
)

func TestLearnerMedian(t *testing.T) {
	l := NewLearner(nil)
	for i := 0; i < 101; i++ {
		l.AddCloud(1, netmodel.NonMobile, float64(i))
	}
	th := l.Snapshot()
	v, ok := th.CloudExpected(1, netmodel.NonMobile)
	if !ok {
		t.Fatal("no learned value")
	}
	if math.Abs(v-50) > 1 {
		t.Errorf("median = %v, want ~50", v)
	}
	if _, ok := th.CloudExpected(2, netmodel.NonMobile); ok {
		t.Error("unlearned cloud returned a value")
	}
}

func TestLearnerDeviceSeparation(t *testing.T) {
	l := NewLearner(nil)
	for i := 0; i < 50; i++ {
		l.AddCloud(1, netmodel.NonMobile, 20)
		l.AddCloud(1, netmodel.Mobile, 80)
	}
	th := l.Snapshot()
	nm, _ := th.CloudExpected(1, netmodel.NonMobile)
	mo, _ := th.CloudExpected(1, netmodel.Mobile)
	if nm != 20 || mo != 80 {
		t.Errorf("device separation broken: %v / %v", nm, mo)
	}
}

func TestLearnerMiddle(t *testing.T) {
	var keys netmodel.KeySpace
	keys.Intern("c0|7")
	k := netmodel.MiddleKey("c1|2001")
	id := keys.Intern(k)
	l := NewLearner(&keys)
	for i := 0; i < 30; i++ {
		l.AddMiddle(id, netmodel.NonMobile, 42)
	}
	th := l.Snapshot()
	v, ok := th.MiddleExpected(k, netmodel.NonMobile)
	if !ok || v != 42 {
		t.Errorf("middle expected = %v,%v", v, ok)
	}
	if th.NumMiddleEntries() != 1 || th.NumCloudEntries() != 0 {
		t.Error("entry counts wrong")
	}
}

func TestLearnerReservoirBounded(t *testing.T) {
	l := NewLearner(nil)
	// Feed far more values than the reservoir capacity; the median of a
	// uniform stream must stay near the true median.
	n := 50000
	for i := 0; i < n; i++ {
		l.AddCloud(1, netmodel.NonMobile, float64(i%1000))
	}
	r := l.cloud[slot(1, netmodel.NonMobile)]
	if len(r.vals) > reservoirCap {
		t.Fatalf("reservoir grew to %d", len(r.vals))
	}
	th := l.Snapshot()
	v, _ := th.CloudExpected(1, netmodel.NonMobile)
	if math.Abs(v-500) > 50 {
		t.Errorf("reservoir median = %v, want ~500", v)
	}
}

func TestLearnerDeterministic(t *testing.T) {
	run := func() float64 {
		l := NewLearner(nil)
		for i := 0; i < 10000; i++ {
			l.AddCloud(3, netmodel.Mobile, float64((i*7)%500))
		}
		v, _ := l.Snapshot().CloudExpected(3, netmodel.Mobile)
		return v
	}
	if run() != run() {
		t.Error("learner not deterministic")
	}
}

func TestAddObservation(t *testing.T) {
	var keys netmodel.KeySpace
	k := netmodel.MiddleKey("c2|2001|1000")
	l := NewLearner(&keys)
	l.AddObservation(2, keys.Intern(k), netmodel.NonMobile, 33)
	th := l.Snapshot()
	if v, ok := th.CloudExpected(2, netmodel.NonMobile); !ok || v != 33 {
		t.Error("cloud side of AddObservation missing")
	}
	if v, ok := th.MiddleExpected(k, netmodel.NonMobile); !ok || v != 33 {
		t.Error("middle side of AddObservation missing")
	}
}

func TestStaticThresholdsCoverBothDevices(t *testing.T) {
	th := StaticThresholds(nil, map[netmodel.CloudID]float64{5: 44}, nil)
	for d := 0; d < netmodel.NumDeviceClasses; d++ {
		if v, ok := th.CloudExpected(5, netmodel.DeviceClass(d)); !ok || v != 44 {
			t.Errorf("device %d missing static threshold", d)
		}
	}
}

// Snapshot selects each median in one shared copy buffer; the value must be
// stats.Median of the reservoir, bit for bit, and the reservoir itself — its
// order decides later replacements — must come out untouched.
func TestSnapshotMatchesMedianAndLeavesReservoirs(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	var keys netmodel.KeySpace
	mid := keys.Intern("c1|2")
	l := NewLearner(&keys)
	// Reservoirs of every shape: one element, odd, even, all equal, heavy
	// ties, and past capacity (so replacement has happened).
	sizes := []int{1, 2, 7, 100, 101, reservoirCap, reservoirCap + 500}
	for c, n := range sizes {
		for i := 0; i < n; i++ {
			l.AddCloud(netmodel.CloudID(c), netmodel.NonMobile, r.NormFloat64()*30+90)
			l.AddCloud(netmodel.CloudID(c), netmodel.Mobile, float64(r.Intn(3)))
			l.AddMiddle(mid, netmodel.DeviceClass(c%netmodel.NumDeviceClasses), 55)
		}
	}
	before := make([][]float64, len(l.cloud))
	for i, res := range l.cloud {
		if res != nil {
			before[i] = append([]float64(nil), res.vals...)
		}
	}
	th := l.Snapshot()
	for i, res := range l.cloud {
		c, d := netmodel.CloudID(i/netmodel.NumDeviceClasses), netmodel.DeviceClass(i%netmodel.NumDeviceClasses)
		got, ok := th.CloudExpected(c, d)
		if res == nil {
			if ok {
				t.Errorf("cloud %d device %v: nothing learned, snapshot has %v", c, d, got)
			}
			continue
		}
		if want := stats.Median(before[i]); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cloud %d device %v: snapshot median %v (ok=%v), stats.Median %v", c, d, got, ok, want)
		}
		for j, v := range res.vals {
			if v != before[i][j] {
				t.Fatalf("cloud %d device %v: Snapshot reordered the reservoir at %d", c, d, j)
			}
		}
	}
	for d := netmodel.DeviceClass(0); int(d) < netmodel.NumDeviceClasses; d++ {
		if got, ok := th.MiddleExpected("c1|2", d); !ok || got != 55 {
			t.Errorf("middle device %v: snapshot median %v (ok=%v), want 55", d, got, ok)
		}
	}
}
