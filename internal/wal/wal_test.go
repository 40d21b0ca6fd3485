package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

func obsFor(b netmodel.Bucket, n int) []trace.Observation {
	obs := make([]trace.Observation, n)
	for i := range obs {
		obs[i] = trace.Observation{
			Prefix:  netmodel.PrefixID(i % 7),
			Cloud:   netmodel.CloudID(i % 3),
			Device:  netmodel.DeviceClass(i % 2),
			Bucket:  b,
			Samples: 10 + i,
			MeanRTT: 42.5 + float64(i),
			Clients: 3 + i,
		}
	}
	return obs
}

// writeSample populates a fresh log with one of every record type and
// returns what recovery should reconstruct.
func writeSample(t *testing.T, dir string, cfg Config) *Recovery {
	t.Helper()
	l, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rec.Buckets) > 0 || len(rec.Batches) > 0 || rec.Settled > 0 || len(rec.Reports) > 0 || rec.MaxSeal >= 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
	}
	want := &Recovery{MaxSeal: -1}

	// Exercise the exact-bits paths: NaN, Inf, negative counts (chaos
	// corruption shapes that must survive the round-trip bit for bit).
	withOddValues := func(obs []trace.Observation) []trace.Observation {
		obs[1].MeanRTT = math.NaN()
		obs[2].MeanRTT = math.Inf(1)
		obs[3].Samples = -4
		obs[4].Clients = -1
		return obs
	}
	batch0 := withOddValues(obsFor(0, 5))
	if err := l.AppendBatch(batch0); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	want.Settled++ // the read of bucket 0 below serves it whole

	if err := l.AppendBucket(0, batch0); err != nil {
		t.Fatalf("AppendBucket: %v", err)
	}
	want.Buckets = append(want.Buckets, BucketStream{Bucket: 0, Obs: batch0})
	if err := l.AppendBucket(1, nil); err != nil {
		t.Fatalf("AppendBucket empty: %v", err)
	}
	want.Buckets = append(want.Buckets, BucketStream{Bucket: 1})

	if err := l.AppendSeal(3); err != nil {
		t.Fatalf("AppendSeal: %v", err)
	}
	want.MaxSeal = 3

	rep := Report{Seq: 0, From: 0, To: 2, Final: true, Canonical: []byte(`{"from":0,"to":2}` + "\n")}
	if err := l.AppendReport(rep); err != nil {
		t.Fatalf("AppendReport: %v", err)
	}
	rep.AfterBuckets = 2
	want.Reports = append(want.Reports, rep)

	cells := []ingest.AggCell{{Agent: 1, Epoch: 2, Seq: 3, Bucket: 4, Prefix: 5, Cloud: 1, Device: 1, Samples: 9, MeanRTT: 55.25, Clients: 2}}
	if err := l.AppendAggBatch(cells); err != nil {
		t.Fatalf("AppendAggBatch: %v", err)
	}
	want.Batches = append(want.Batches, Batch{Cells: cells, AfterBuckets: 2})
	late := withOddValues(obsFor(5, 5))
	if err := l.AppendBatch(late); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	want.Batches = append(want.Batches, Batch{Obs: late, AfterBuckets: 2})

	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return want
}

func checkRecovered(t *testing.T, got, want *Recovery) {
	t.Helper()
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("recovered %d bucket streams, want %d", len(got.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if got.Buckets[i].Bucket != want.Buckets[i].Bucket {
			t.Errorf("bucket stream %d: bucket %d, want %d", i, got.Buckets[i].Bucket, want.Buckets[i].Bucket)
		}
		if !obsEqual(got.Buckets[i].Obs, want.Buckets[i].Obs) {
			t.Errorf("bucket stream %d: observations differ", i)
		}
	}
	if len(got.Batches) != len(want.Batches) {
		t.Fatalf("recovered %d batches, want %d", len(got.Batches), len(want.Batches))
	}
	for i := range want.Batches {
		if !obsEqual(got.Batches[i].Obs, want.Batches[i].Obs) {
			t.Errorf("batch %d: observations differ", i)
		}
		if !reflect.DeepEqual(got.Batches[i].Cells, want.Batches[i].Cells) {
			t.Errorf("batch %d: cells = %+v, want %+v", i, got.Batches[i].Cells, want.Batches[i].Cells)
		}
		if got.Batches[i].AfterBuckets != want.Batches[i].AfterBuckets {
			t.Errorf("batch %d: AfterBuckets = %d, want %d", i, got.Batches[i].AfterBuckets, want.Batches[i].AfterBuckets)
		}
	}
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("recovered %d reports, want %d", len(got.Reports), len(want.Reports))
	}
	for i := range want.Reports {
		g, w := got.Reports[i], want.Reports[i]
		if g.Seq != w.Seq || g.From != w.From || g.To != w.To || g.Final != w.Final || !bytes.Equal(g.Canonical, w.Canonical) ||
			g.Index != w.Index || g.AfterBuckets != w.AfterBuckets {
			t.Errorf("report %d: got %+v want %+v", i, g, w)
		}
	}
	if got.MaxSeal != want.MaxSeal {
		t.Errorf("MaxSeal = %d, want %d", got.MaxSeal, want.MaxSeal)
	}
	if got.Settled != want.Settled {
		t.Errorf("Settled = %d, want %d", got.Settled, want.Settled)
	}
}

// obsEqual compares observations with NaN-aware float equality (the codec
// round-trips IEEE bits, so NaN must compare equal to itself here).
func obsEqual(a, b []trace.Observation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.MeanRTT) != math.Float64bits(y.MeanRTT) {
			return false
		}
		x.MeanRTT, y.MeanRTT = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	for _, policy := range []Policy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Fsync: policy, Meta: "test-meta"}
			want := writeSample(t, dir, cfg)
			l, rec, err := Open(dir, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l.Close()
			checkRecovered(t, rec, want)
			if rec.TruncatedBytes != 0 {
				t.Errorf("TruncatedBytes = %d on a clean log", rec.TruncatedBytes)
			}
		})
	}
}

func TestMetaMismatchRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, Config{Meta: "scale=small seed=1"})
	_, _, err := Open(dir, Config{Meta: "scale=small seed=2"})
	if err == nil {
		t.Fatal("Open with a different meta fingerprint succeeded")
	}
}

// families are the log's three segment families, by the file name of
// their first segment.
var families = []string{"wal-0000000001.log", "reports-0000000001.log", "accepted-0000000001.log"}

// withSegment copies dir's segments into a fresh directory, with data as
// the named one.
func withSegment(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	dir2 := t.TempDir()
	for _, fam := range families {
		b, err := os.ReadFile(filepath.Join(dir, fam))
		if err != nil {
			t.Fatal(err)
		}
		if fam == name {
			b = data
		}
		if err := os.WriteFile(filepath.Join(dir2, fam), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir2
}

// TestTornTailTruncation cuts each family's segment at every byte offset
// and reopens: recovery must always succeed with a strict prefix of the
// records, keep the other families whole, count the discarded bytes, and
// leave every family appendable.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	want := writeSample(t, dir, cfg)
	stride := 1
	if testing.Short() {
		stride = 37
	}
	for _, name := range families {
		full, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for cut := len(full) - 1; cut >= 0; cut -= stride {
			dir2 := withSegment(t, dir, name, full[:cut])
			l, rec, err := Open(dir2, cfg)
			if err != nil {
				t.Fatalf("%s cut=%d: Open: %v", name, cut, err)
			}
			if len(rec.Buckets) > len(want.Buckets) || len(rec.Reports) > len(want.Reports) || len(rec.Batches)+rec.Settled > len(want.Batches)+want.Settled {
				t.Fatalf("%s cut=%d: recovered more than was written", name, cut)
			}
			// A cut history takes the reports after its lost reads along.
			reports := 0
			for _, r := range want.Reports {
				if r.AfterBuckets <= len(rec.Buckets) {
					reports++
				}
			}
			if name != families[0] && len(rec.Buckets) != len(want.Buckets) ||
				name != families[1] && len(rec.Reports) != reports ||
				name != families[2] && len(rec.Batches)+rec.Settled != len(want.Batches)+want.Settled {
				t.Fatalf("%s cut=%d: another family lost records", name, cut)
			}
			// Every family must remain appendable after tail truncation.
			if err := l.AppendSeal(9); err != nil {
				t.Fatalf("%s cut=%d: append after truncation: %v", name, cut, err)
			}
			if err := l.AppendBatch(obsFor(9, 1)); err != nil {
				t.Fatalf("%s cut=%d: append after truncation: %v", name, cut, err)
			}
			if err := l.AppendReport(Report{Seq: 9, From: 9, To: 9, Canonical: []byte("{}")}); err != nil {
				t.Fatalf("%s cut=%d: append after truncation: %v", name, cut, err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("%s cut=%d: close: %v", name, cut, err)
			}
			l2, rec2, err := Open(dir2, cfg)
			if err != nil {
				t.Fatalf("%s cut=%d: reopen: %v", name, cut, err)
			}
			if n, r := len(rec2.Batches), len(rec2.Reports); rec2.MaxSeal != 9 || n == 0 || rec2.Batches[n-1].Obs[0].Bucket != 9 || r == 0 || rec2.Reports[r-1].Seq != 9 {
				t.Fatalf("%s cut=%d: post-truncation appends lost: MaxSeal=%d, %d batches, %d reports", name, cut, rec2.MaxSeal, n, r)
			}
			l2.Close()
		}
	}
}

// TestBitFlipTruncation flips each byte of each family in turn: the
// scanner must never panic, must recover a prefix, and must report the
// truncated tail.
func TestBitFlipTruncation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	writeSample(t, dir, cfg)
	stride := 1
	if testing.Short() {
		stride = 23
	}
	for _, name := range families {
		full, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for off := segHeader; off < len(full); off += stride {
			mut := append([]byte(nil), full...)
			mut[off] ^= 0x40
			dir2 := withSegment(t, dir, name, mut)
			l, rec, err := Open(dir2, cfg)
			if err != nil {
				// A flip inside the meta record legitimately fails the
				// fingerprint check rather than truncating.
				continue
			}
			if rec.TruncatedBytes == 0 && !sameSegment(dir2, dir, name) {
				t.Fatalf("%s off=%d: corruption neither truncated nor preserved the log", name, off)
			}
			l.Close()
		}
	}
}

func sameSegment(dirA, dirB, name string) bool {
	a, errA := os.ReadFile(filepath.Join(dirA, name))
	b, errB := os.ReadFile(filepath.Join(dirB, name))
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, SegmentBytes: 256, Meta: "m"}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []BucketStream
	for b := netmodel.Bucket(0); b < 40; b++ {
		obs := obsFor(b, 3)
		if err := l.AppendBucket(b, obs); err != nil {
			t.Fatalf("append bucket %d: %v", b, err)
		}
		want = append(want, BucketStream{Bucket: b, Obs: obs})
	}
	st := l.Stats()
	if st.Segments < 4 {
		t.Fatalf("Segments = %d, want the history rotated past 1 segment beside the reports and the accepted one", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Buckets) != len(want) {
		t.Fatalf("recovered %d bucket streams across segments, want %d", len(rec.Buckets), len(want))
	}
	for i := range want {
		if rec.Buckets[i].Bucket != want[i].Bucket || !obsEqual(rec.Buckets[i].Obs, want[i].Obs) {
			t.Fatalf("bucket stream %d differs after rotation", i)
		}
	}
}

// TestAbandonKeepsAcknowledged simulates a kill -9: Abandon closes the fd
// without syncing; every record appended before the crash must still be
// recovered (the OS keeps page-cache writes from dead processes).
func TestAbandonKeepsAcknowledged(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncOff, Meta: "m"}
	l, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := netmodel.Bucket(0); b < 10; b++ {
		if err := l.AppendBucket(b, obsFor(b, 2)); err != nil {
			t.Fatal(err)
		}
	}
	l.Abandon()
	_, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Buckets) != 10 {
		t.Fatalf("recovered %d bucket streams after abandon, want 10", len(rec.Buckets))
	}
}

func TestStatsAndLag(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Config{Fsync: SyncOff, Meta: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.AppendSeal(netmodel.Bucket(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.AppendedRecords != 5 || st.LagRecords != 5 {
		t.Fatalf("Stats = %+v, want 5 appended / 5 lagging under SyncOff", st)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.LagRecords != 0 {
		t.Fatalf("LagRecords = %d after Sync, want 0", st.LagRecords)
	}
}

// TestReaderVarint holds the reader's one- and two-byte fast paths to
// encoding/binary over every value they cover and the boundaries beyond,
// non-minimal encodings included.
func TestReaderVarint(t *testing.T) {
	check := func(enc []byte) {
		t.Helper()
		want, n := binary.Varint(enc)
		r := &reader{b: append([]byte(nil), enc...)}
		got := r.varint()
		if (n <= 0) != r.err || (n > 0 && (got != want || r.left() != len(enc)-n)) {
			t.Fatalf("varint(% x) = %d, %d left, err %v; binary.Varint = %d, n %d", enc, got, r.left(), r.err, want, n)
		}
	}
	for v := int64(-70000); v <= 70000; v++ {
		check(binary.AppendVarint(nil, v))
		check(append(binary.AppendVarint(nil, v), 0xff, 0x01)) // with bytes following
	}
	for _, enc := range [][]byte{{}, {0x80}, {0x80, 0x00}, {0xff, 0x7f}, {0x80, 0x80, 0x00}, {0xff, 0xff}, bytes.Repeat([]byte{0xff}, 11)} {
		check(enc)
	}
	check(binary.AppendVarint(nil, math.MaxInt64))
	check(binary.AppendVarint(nil, math.MinInt64))
}
