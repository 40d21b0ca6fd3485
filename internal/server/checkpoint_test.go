package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"blameit/internal/bgp"
	"blameit/internal/chaos"
	"blameit/internal/ckpt"
	"blameit/internal/faults"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/wal"
)

// books is what one arm serves at the end: the canonical report stream,
// the report index, the verdicts, and the quarantine's books.
type books struct {
	reports, index, verdicts []byte
	quarantine               string
}

func servedBooks(t *testing.T, e *walEnv) books {
	t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/verdicts")
	if err != nil {
		t.Fatalf("GET /v1/verdicts: %v", err)
	}
	verdicts, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/verdicts = %d, %v", resp.StatusCode, err)
	}
	q := e.srv.Pipeline().Quarantine()
	return books{
		reports:    collectCanonical(t, e.ts.Client(), e.ts.URL),
		index:      reportsIndex(t, e.ts.Client(), e.ts.URL),
		verdicts:   verdicts,
		quarantine: fmt.Sprintf("%s %+v", q, q.Recent()),
	}
}

// sameBooks fails unless got serves exactly what want serves.
func sameBooks(t *testing.T, arm string, got, want books) {
	t.Helper()
	if len(want.reports) == 0 {
		t.Fatalf("%s: the reference served no report", arm)
	}
	if !bytes.Equal(got.reports, want.reports) {
		t.Errorf("%s: reports diverged (%d vs %d canonical bytes)", arm, len(got.reports), len(want.reports))
	}
	if !bytes.Equal(got.index, want.index) {
		t.Errorf("%s: report index diverged:\n got %s\nwant %s", arm, got.index, want.index)
	}
	if !bytes.Equal(got.verdicts, want.verdicts) {
		t.Errorf("%s: /v1/verdicts diverged (%d vs %d bytes)", arm, len(got.verdicts), len(want.verdicts))
	}
	if got.quarantine != want.quarantine {
		t.Errorf("%s: quarantine books\n got %s\nwant %s", arm, got.quarantine, want.quarantine)
	}
}

// recoveries reads the recovery.complete events of a captured log: the
// bucket of the checkpoint each continued from (-1 for none), and how
// many buckets it replayed.
func recoveries(t *testing.T, buf *bytes.Buffer) (from, replayed []int) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Msg        string `json:"msg"`
			Checkpoint int    `json:"checkpoint_bucket"`
			Replayed   int    `json:"replayed_buckets"`
		}
		if json.Unmarshal([]byte(line), &ev) == nil && ev.Msg == "recovery.complete" {
			from = append(from, ev.Checkpoint)
			replayed = append(replayed, ev.Replayed)
		}
	}
	return from, replayed
}

// everyJob cuts a checkpoint after every job: each crash point then has
// one before it.
func everyJob(c *Config) { c.checkpointAt = func(netmodel.Bucket) bool { return true } }

// TestCheckpointCrashMatrix is the crash gate of checkpointed recovery:
// the same feed runs uninterrupted in memory, crashed and recovered by
// replay from zero, and crashed and recovered from a checkpoint cut after
// every job — on the raw feed, the aggregate feed, a drain flush and a
// chaos profile. Every recovered arm must serve what the uninterrupted one
// serves: report bytes, index, verdicts and quarantine books. The
// checkpointed arm runs, and restores its sections, on one pipeline worker
// and on two; it must have continued from a checkpoint after each crash
// past warm-up, replaying one job window at most.
func TestCheckpointCrashMatrix(t *testing.T) {
	const warmup = 36
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	base := func(c *Config) { c.WarmupBuckets = warmup }
	withCkpt := func(c *Config) { base(c); everyJob(c) }
	runEvery := pipeline.DefaultConfig().RunEvery

	// check runs one scenario's three arms: run(dir, mut) drives one arm
	// and returns its last incarnation; ref, if not nil, is the
	// uninterrupted arm when it is not run's own in-memory form.
	check := func(t *testing.T, run func(dir string, mut func(*Config)) *walEnv, mut, ckMut func(*Config), ref *books) {
		t.Helper()
		var want books
		if ref != nil {
			want = *ref
		} else {
			e := run("", mut)
			want = servedBooks(t, e)
			e.close(t)
		}
		zero := run(t.TempDir(), mut)
		sameBooks(t, "replay from zero", servedBooks(t, zero), want)
		zero.close(t)

		for _, workers := range []int{1, 2} {
			arm := fmt.Sprintf("checkpointed at %d workers", workers)
			buf := captureLog(t)
			e := run(t.TempDir(), func(c *Config) { ckMut(c); c.Pipeline.Workers = workers })
			sameBooks(t, arm, servedBooks(t, e), want)
			if wh := e.srv.WALHealth(); wh.CheckpointBucket < 0 {
				t.Errorf("%s: the last incarnation knows no checkpoint: %+v", arm, wh)
			}
			e.close(t)
			n, replayed := 0, 0
			from, counts := recoveries(t, buf)
			for i, b := range from {
				if b >= 0 {
					n++
					replayed = max(replayed, counts[i])
				}
			}
			if n == 0 {
				t.Fatalf("%s: no incarnation continued from a checkpoint", arm)
			}
			if replayed > runEvery {
				t.Errorf("%s: an incarnation replayed %d buckets after its checkpoint, more than one job window (%d)", arm, replayed, runEvery)
			}
			t.Logf("%s: %d restores from a checkpoint, at most %d buckets replayed after one", arm, n, replayed)
		}
	}

	t.Run("raw", func(t *testing.T) {
		const horizon = 144
		streams := simStreams(newTestSim(1), horizon)
		points := []crashPoint{
			{bucket: 45, mode: "midbatch"},
			{bucket: 58, mode: "afterseal"},
			{bucket: 77, mode: "boundary"},
			{bucket: 101, mode: "boundary"},
			{bucket: 130, mode: "midbatch"},
		}
		check(t, func(dir string, mut func(*Config)) *walEnv {
			if dir == "" {
				return runServiceFeed(t, dir, mkSim, mut, streams, nil, false)
			}
			return runServiceFeed(t, dir, mkSim, mut, streams, points, false)
		}, base, withCkpt, nil)
	})

	t.Run("aggregates", func(t *testing.T) {
		const horizon = 108
		streams := simStreams(newTestSim(1), horizon)
		mut := func(c *Config) { base(c); c.CompactEveryReports = 1 }
		points := []crashPoint{
			{bucket: 44, mode: "midbatch"},
			{bucket: 52, mode: "compacted"},
			{bucket: 59, mode: "afterpost"},
			{bucket: 73, mode: "boundary"},
			{bucket: 90, mode: "midbatch"},
		}
		check(t, func(dir string, mut func(*Config)) *walEnv {
			if dir == "" {
				e, _ := runAggFeed(t, dir, mkSim, mut, streams, nil)
				return e
			}
			e, _ := runAggFeed(t, dir, mkSim, mut, streams, points)
			return e
		}, mut, func(c *Config) { mut(c); everyJob(c) }, nil)
	})

	t.Run("drainflush", func(t *testing.T) {
		const flushAt, crashAt, horizon = 52, 64, 84
		streams := simStreams(newTestSim(1), horizon)
		reports, index := flushedReference(t, streams, warmup, flushAt)
		run := func(dir string, mut func(*Config)) *walEnv {
			return runDrainFlush(t, dir, mkSim, mut, streams, flushAt, crashAt)
		}
		// The uninterrupted arm is one in-process pipeline flushed at
		// flushAt: its reports and index. The zero arm, held to it, then
		// stands for it on verdicts and quarantine.
		zero := run(t.TempDir(), base)
		want := servedBooks(t, zero)
		zero.close(t)
		var idx []reportSummary
		if err := json.Unmarshal(want.index, &idx); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.reports, reports) || fmt.Sprint(idx) != fmt.Sprint(index) {
			t.Fatal("the replay-from-zero arm diverged from the in-process pipeline")
		}
		check(t, run, base, withCkpt, &want)
	})

	t.Run("chaos", func(t *testing.T) {
		const horizon = 144
		w, mkChaosSim := chaosWorld()
		streams, st := chaosStreams(t, w, mkChaosSim(), chaos.Light(1234), horizon)
		if st.Corrupted == 0 || st.LateDelivered == 0 || st.Duplicated == 0 {
			t.Fatalf("light profile injected nothing over %d buckets: %+v", horizon, st)
		}
		mut := func(c *Config) { base(c); c.Pipeline.WarmupSampleEvery = 1 }
		points := []crashPoint{{bucket: 47, mode: "boundary"}, {bucket: 80, mode: "boundary"}, {bucket: 121, mode: "boundary"}}
		check(t, func(dir string, mut func(*Config)) *walEnv {
			if dir == "" {
				return runServiceFeed(t, dir, mkChaosSim, mut, streams, nil, true)
			}
			return runServiceFeed(t, dir, mkChaosSim, mut, streams, points, true)
		}, mut, func(c *Config) { mut(c); everyJob(c) }, nil)
	})
}

// TestCheckpointRejected damages the newest checkpoints of a stopped
// daemon's directory — torn, cut short, a body that does not decode, seams
// a power loss took back — and restarts over each. Every damaged
// checkpoint is rejected, logged and unlinked, recovery falls back to an
// older one or to zero, and the daemon then serves what the uninterrupted
// one does. A history cut after the newest seam costs no checkpoint. Once
// compaction has unlinked the history before the older checkpoint, zero
// is no fallback: with both checkpoints damaged the daemon refuses to
// start, naming both, as it refuses a directory in format version 4.
func TestCheckpointRejected(t *testing.T) {
	const warmup, stop, horizon = 36, 80, 96
	streams := simStreams(newTestSim(1), horizon)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	mut := func(c *Config) {
		c.WarmupBuckets = warmup
		c.CompactEveryReports = -1 // a cut history re-queues its batches
		c.checkpointAt = func(b netmodel.Bucket) bool { return (b+1)%12 == 0 }
	}
	feed := func(e *walEnv, from, to int) {
		t.Helper()
		for b := from; b < to; b++ {
			postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
			if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
				t.Fatalf("seal %d = %d (%s)", b, st, body)
			}
		}
		e.quiesce(t, netmodel.Bucket(to-1))
	}
	ref := openEnv(t, "", mkSim, mut)
	feed(ref, 0, horizon)
	want := servedBooks(t, ref)
	ref.close(t)

	src := t.TempDir()
	e := openEnv(t, src, mkSim, mut)
	feed(e, 0, stop)
	e.crash()
	ckpts, _ := filepath.Glob(filepath.Join(src, "checkpoint-*.ckpt"))
	sort.Strings(ckpts)
	if len(ckpts) != 2 {
		t.Fatalf("the directory keeps %d checkpoints, want 2: %v", len(ckpts), ckpts)
	}
	newest := filepath.Base(ckpts[1])

	undecodable := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := wal.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := wal.EncodeCheckpoint(&out, ck, func(e *ckpt.Encoder) error {
			e.Raw(ck.Body[:len(ck.Body)/2]) // a valid frame around half a state
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	cutFile := func(path string, keep func(size int64) int64) {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, keep(st.Size())); err != nil {
			t.Fatal(err)
		}
	}
	older := netmodel.Bucket(59) // the bucket of ckpts[0], cut after the job ending there
	for _, tc := range []struct {
		name     string
		damage   func(dir string)
		rejected int
		from     netmodel.Bucket // the checkpoint recovery continues from, or -1
	}{
		{"torn", func(dir string) { cutFile(filepath.Join(dir, newest), func(n int64) int64 { return n - 1 }) }, 1, older},
		{"truncated", func(dir string) { cutFile(filepath.Join(dir, newest), func(n int64) int64 { return n / 3 }) }, 1, older},
		{"undecodable", func(dir string) { undecodable(filepath.Join(dir, newest)) }, 1, older},
		{"both", func(dir string) {
			undecodable(filepath.Join(dir, newest))
			cutFile(filepath.Join(dir, filepath.Base(ckpts[0])), func(n int64) int64 { return 100 })
		}, 2, -1},
		{"history-cut", func(dir string) {
			// Back to the middle of the first segment: both seams are gone.
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			sort.Strings(segs)
			for _, seg := range segs[1:] {
				if err := os.Remove(seg); err != nil {
					t.Fatal(err)
				}
			}
			cutFile(segs[0], func(n int64) int64 { return n / 2 })
		}, 2, -1},
		{"seam-cut", func(dir string) {
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			sort.Strings(segs)
			cutFile(segs[len(segs)-1], func(n int64) int64 { return n / 2 })
		}, 0, 71},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range entries {
				data, err := os.ReadFile(filepath.Join(src, de.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, de.Name()), data, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			tc.damage(dir)
			buf := captureLog(t)
			e := openEnv(t, dir, mkSim, mut)
			checkRecoveryConsistent(t, e)
			if got := strings.Count(buf.String(), `"msg":"recovery.checkpoint_rejected"`); got != tc.rejected {
				t.Errorf("%d checkpoints rejected, want %d:\n%s", got, tc.rejected, buf)
			}
			if from, _ := recoveries(t, buf); len(from) != 1 || from[0] != int(tc.from) {
				t.Errorf("recovery continued from checkpoints %v, want [%d]", from, tc.from)
			}
			// What catch-up left behind is whole: a rejected checkpoint is
			// gone, or written again.
			left, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
			for _, path := range left {
				if data, err := os.ReadFile(path); err != nil {
					t.Error(err)
				} else if _, err := wal.DecodeCheckpoint(data); err != nil {
					t.Errorf("%s after recovery: %v", filepath.Base(path), err)
				}
			}
			feed(e, stop, horizon)
			sameBooks(t, tc.name, servedBooks(t, e), want)
			e.close(t)
		})
	}

	t.Run("compacted", func(t *testing.T) {
		dir := t.TempDir()
		compacted := func(c *Config) { mut(c); c.CompactEveryReports = 1 }
		e := openEnv(t, dir, mkSim, compacted)
		feed(e, 0, stop)
		e.crash()
		if _, err := os.Stat(filepath.Join(dir, "wal-0000000001.log")); !os.IsNotExist(err) {
			t.Fatalf("compaction kept the history's first segment: %v", err)
		}
		names, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
		sort.Strings(names)
		if len(names) != 2 {
			t.Fatalf("the directory keeps %d checkpoints, want 2: %v", len(names), names)
		}
		undecodable(names[1])
		cutFile(names[0], func(int64) int64 { return 100 })
		srv, err := newEnvServer(dir, mkSim, compacted)
		if err == nil {
			srv.Shutdown(context.Background())
			t.Fatal("a directory no recovery can start was served")
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), filepath.Base(name)) {
				t.Errorf("the refusal does not name %s: %v", filepath.Base(name), err)
			}
			if _, serr := os.Stat(name); serr != nil {
				t.Errorf("the refused start removed %s: %v", filepath.Base(name), serr)
			}
		}
	})

	t.Run("format-v4", func(t *testing.T) {
		dir := t.TempDir()
		old, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "format-v4", "wal-0000000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000001.log"), old, 0o666); err != nil {
			t.Fatal(err)
		}
		srv, err := newEnvServer(dir, mkSim, mut)
		if err == nil {
			srv.Shutdown(context.Background())
			t.Fatal("a format version 4 directory was served")
		}
		if !strings.Contains(err.Error(), "format version 4") {
			t.Fatalf("the refusal does not name the version: %v", err)
		}
	})

}

// TestCheckpointSeam holds recovery to the seam rule. A restart reads
// nothing of the history before the newest checkpoint's seam: with every
// segment before it garbled, it serves what the uninterrupted daemon
// serves — reports, index, verdicts and quarantine books. And a kill at
// either crash point of a checkpoint — after the cut that starts its seam
// and before its file, or after its file and before the report it follows
// is served — recovers to the same books: from the checkpoint before,
// replaying across the seam, or from the new one.
func TestCheckpointSeam(t *testing.T) {
	const warmup, stop, horizon = 36, 80, 96
	streams := simStreams(newTestSim(1), horizon)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	mut := func(c *Config) {
		c.WarmupBuckets = warmup
		c.CompactEveryReports = -1 // every history segment stays
		c.checkpointAt = func(b netmodel.Bucket) bool { return (b+1)%12 == 0 }
	}
	post := func(e *walEnv, from, to int) {
		t.Helper()
		for b := from; b < to; b++ {
			postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
			if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
				t.Fatalf("seal %d = %d (%s)", b, st, body)
			}
		}
	}
	feed := func(e *walEnv, from, to int) {
		t.Helper()
		post(e, from, to)
		e.quiesce(t, netmodel.Bucket(to-1))
	}
	ref := openEnv(t, "", mkSim, mut)
	feed(ref, 0, horizon)
	want := servedBooks(t, ref)
	ref.close(t)

	t.Run("garbled-before-seam", func(t *testing.T) {
		dir := t.TempDir()
		e := openEnv(t, dir, mkSim, mut)
		feed(e, 0, stop)
		e.crash()
		// The newest checkpoint, after bucket 71, started the last segment.
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		sort.Strings(segs)
		if len(segs) < 3 {
			t.Fatalf("history segments %v, want one a checkpoint and more", segs)
		}
		garbled := map[string][]byte{}
		for _, seg := range segs[:len(segs)-1] {
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			garbled[seg] = bytes.Repeat([]byte{0xEE}, int(st.Size()))
			if err := os.WriteFile(seg, garbled[seg], 0o666); err != nil {
				t.Fatal(err)
			}
		}
		buf := captureLog(t)
		e = openEnv(t, dir, mkSim, mut)
		checkRecoveryConsistent(t, e)
		if from, _ := recoveries(t, buf); len(from) != 1 || from[0] != 71 {
			t.Errorf("recovery continued from checkpoints %v, want [71]", from)
		}
		if !strings.Contains(buf.String(), `"history_segments":1,`) {
			t.Errorf("recovery read more than the seam segment:\n%s", buf)
		}
		for seg, data := range garbled {
			if now, err := os.ReadFile(seg); err != nil || !bytes.Equal(now, data) {
				t.Errorf("%s was touched (err %v)", filepath.Base(seg), err)
			}
		}
		feed(e, stop, horizon)
		sameBooks(t, "garbled before the seam", servedBooks(t, e), want)
		e.close(t)
	})

	for _, tc := range []struct {
		phase string
		from  int // the checkpoint bucket the restart continues from
	}{{"cut", 47}, {"checkpointed", 59}} {
		t.Run("killed-"+tc.phase, func(t *testing.T) {
			dir := t.TempDir()
			n := 0 // the second checkpoint is the one after bucket 59
			e := openEnv(t, dir, mkSim, func(c *Config) {
				mut(c)
				c.killAt = func(phase string) bool {
					if phase == tc.phase {
						n++
					}
					return phase == tc.phase && n == 2
				}
			})
			post(e, 0, 60)
			select {
			case <-e.srv.done:
			case <-time.After(60 * time.Second):
				t.Fatalf("the backend was not stopped at the %s of bucket 59's checkpoint", tc.phase)
			}
			if last, ok := e.srv.reports.latest(); !ok || last.to >= 59 {
				t.Fatalf("the killed backend served up to %+v, want the reports before bucket 59's", last)
			}
			e.crash()
			buf := captureLog(t)
			e = openEnv(t, dir, mkSim, mut)
			checkRecoveryConsistent(t, e)
			if from, _ := recoveries(t, buf); len(from) != 1 || from[0] != tc.from {
				t.Errorf("recovery continued from checkpoints %v, want [%d]", from, tc.from)
			}
			feed(e, 60, horizon)
			sameBooks(t, "killed "+tc.phase, servedBooks(t, e), want)
			e.close(t)
		})
	}
}

// tinySim is a world of a few dozen /24s without faults: its checkpoints
// are tens of kilobytes.
func tinySim() *sim.Simulator {
	tiny := topology.SmallScale()
	tiny.TransitPerRegion, tiny.EyeballsPerRegion = 2, 4
	tiny.MinBGPPerAS, tiny.MaxBGPPerAS = 1, 1
	w := topology.Generate(tiny, 7)
	return sim.New(w, bgp.NewTable(w, bgp.DefaultChurnConfig(), netmodel.BucketsPerDay, 9), faults.NewSchedule(nil), sim.DefaultConfig(10))
}

// FuzzCheckpoint holds the checkpoint decoder — the WAL's file framing,
// the sections' trailer, the pipeline's state and the report log's
// headers — to arbitrary bytes: no input panics it; each is rejected or
// restored; and a restored checkpoint re-encodes to exactly the bytes it
// came from, so nothing a restore accepts is changed by it. Each input is
// tried as it is, then with its CRC made to match, and restored on one
// goroutine and on several.
func FuzzCheckpoint(f *testing.F) {
	// The tiny world keeps the seed state, and each restore, small enough
	// to mutate quickly.
	probeSim := tinySim()
	pcfg := pipeline.DefaultConfig()
	pcfg.Workers = 1
	deps := pipeline.Deps{
		World:  probeSim.World,
		Table:  probeSim.Routes,
		Prober: probe.NewEngine(probeSim, pcfg.ProbeNoiseMS),
		Source: ingest.SourceFunc(probeSim.ObservationsAt),
	}
	// The seed: a pipeline warmed up and stepped through a few jobs, with
	// two report headers.
	p := pipeline.New(deps, pcfg)
	p.Warmup(0, 12)
	var headers []storedReport
	for b := netmodel.Bucket(12); b < 24; b++ {
		rep, err := p.Step(b)
		if err != nil {
			f.Fatal(err)
		}
		if rep != nil && len(headers) < 2 {
			headers = append(headers, stored(int64(len(headers)), rep, nil))
		}
	}
	encode := func(pos wal.Checkpoint, pipe *pipeline.Pipeline, headers []storedReport) ([]byte, error) {
		var buf bytes.Buffer
		_, err := wal.EncodeCheckpoint(&buf, pos, func(e *ckpt.Encoder) error { return appendState(e, pipe, headers) })
		return buf.Bytes(), err
	}
	seed, err := encode(wal.Checkpoint{Reads: 12, Bucket: 23, Reports: 4}, p, headers)
	if err != nil {
		f.Fatal(err)
	}
	f.Logf("seed: %d bytes", len(seed))
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	f.Add(append([]byte(nil), seed[:64]...))
	f.Add([]byte("BLAMECKP"))
	// The trailer damaged: its offsets swapped, one past the sections, two
	// equal, and a count of zero (the CRC is made to match below).
	const sections = pipeline.CheckpointSections + 1
	trailer := len(seed) - 4 - 4*(sections+1)
	offset := func(b []byte, i int) []byte { return b[trailer+4*i : trailer+4*i+4] }
	for _, damage := range []func(b []byte){
		func(b []byte) {
			x, y := slices.Clone(offset(b, 2)), slices.Clone(offset(b, 3))
			copy(offset(b, 2), y)
			copy(offset(b, 3), x)
		},
		func(b []byte) { binary.LittleEndian.PutUint32(offset(b, 4), uint32(len(seed))) },
		func(b []byte) { copy(offset(b, 5), offset(b, 4)) },
		func(b []byte) { binary.LittleEndian.PutUint32(offset(b, sections), 0) },
	} {
		b := slices.Clone(seed)
		damage(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wal.DecodeCheckpoint(data)
		// The input with its CRC made to match, so that the mutations reach
		// the header and the state past the checksum.
		if len(data) >= 4 {
			data = binary.LittleEndian.AppendUint32(data[:len(data)-4:len(data)-4], crc32.Checksum(data[:len(data)-4], ckpt.Table))
		}
		ck, err := wal.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		for _, workers := range []int{1, 3} {
			cfg := pcfg
			cfg.Workers = workers
			pipe := pipeline.New(deps, cfg)
			headers, err := restoreState(ck.Body, pipe)
			if err != nil {
				return
			}
			again, err := encode(ck, pipe, headers)
			if err != nil {
				t.Fatalf("a checkpoint restored at %d workers does not encode: %v", workers, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("a checkpoint restored at %d workers re-encodes to %d bytes, not the %d it came from", workers, len(again), len(data))
			}
		}
	})
}

// TestCheckpointSkippedWhenInconsistent restarts over a journal whose
// first report does not decode: its regeneration is counted as a
// divergence and journaled anew, so seqs no longer name the history's
// report records, and no checkpoint may be cut, forced or not.
func TestCheckpointSkippedWhenInconsistent(t *testing.T) {
	dir := t.TempDir()
	wcfg := wal.Config{Fsync: wal.SyncOff, Meta: "inconsistent"}
	lg, _, err := wal.Open(dir, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendReport(wal.Report{Seq: 0, From: 0, To: 2, Canonical: []byte("not json")}); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	streams := simStreams(newTestSim(1), 12)
	e := openEnv(t, dir, func() *sim.Simulator { return newTestSim(1) }, func(c *Config) { c.WAL = wcfg; everyJob(c) })
	for b, obs := range streams {
		postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, obs))
		if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
			t.Fatalf("seal %d = %d (%s)", b, st, body)
		}
	}
	e.quiesce(t, netmodel.Bucket(len(streams)-1))
	wh := e.srv.WALHealth()
	e.close(t)
	if wh.RecoveryInconsistent != 1 || wh.CheckpointBucket != -1 {
		t.Errorf("inconsistent %d, checkpoint bucket %d: want 1 and none", wh.RecoveryInconsistent, wh.CheckpointBucket)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt")); len(left) != 0 {
		t.Errorf("checkpoints cut after a divergence: %v", left)
	}
}

// TestCheckpointRetainedReports restarts a daemon that retained four
// reports at its checkpoints: under the same retention it restores them
// (the log evicting as it goes), under a larger one it refuses them and
// replays from zero, as only replay can serve the reports the checkpoint
// dropped. Each restart serves what an uninterrupted daemon with its
// retention serves. Once compaction has unlinked the history before the
// older checkpoint there is no zero to replay from: the larger retention
// refuses to start, naming both checkpoints.
func TestCheckpointRetainedReports(t *testing.T) {
	const warmup, horizon = 36, 72
	streams := simStreams(newTestSim(1), horizon)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	retain := func(n, compact int) func(*Config) {
		return func(c *Config) {
			c.WarmupBuckets = warmup
			c.MaxReports = n
			c.CompactEveryReports = compact
			everyJob(c)
		}
	}
	feed := func(e *walEnv, from, to int) {
		t.Helper()
		for b := from; b < to; b++ {
			postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
			if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
				t.Fatalf("seal %d = %d (%s)", b, st, body)
			}
		}
		e.quiesce(t, netmodel.Bucket(to-1))
	}
	for _, tc := range []struct {
		retain, compact int
		from            int // the checkpoint bucket recovery continues from, -1 for none, -2 for a refusal
	}{{4, 8, 59}, {8, -1, -1}, {8, 8, -2}} {
		dir := t.TempDir()
		e := openEnv(t, dir, mkSim, retain(4, tc.compact))
		feed(e, 0, 60)
		e.crash()
		if tc.from == -2 {
			srv, err := newEnvServer(dir, mkSim, retain(tc.retain, tc.compact))
			if err == nil {
				srv.Shutdown(context.Background())
				t.Fatalf("retaining %d after compaction: the restart was served", tc.retain)
			}
			if strings.Count(err.Error(), "holds 4 reports, the log retains") != 2 {
				t.Errorf("retaining %d after compaction: the refusal does not name both checkpoints: %v", tc.retain, err)
			}
			continue
		}
		ref := openEnv(t, "", mkSim, retain(tc.retain, tc.compact))
		feed(ref, 0, horizon)
		want := servedBooks(t, ref)
		ref.close(t)

		buf := captureLog(t)
		e = openEnv(t, dir, mkSim, retain(tc.retain, tc.compact))
		checkRecoveryConsistent(t, e)
		if from, _ := recoveries(t, buf); len(from) != 1 || from[0] != tc.from {
			t.Errorf("retaining %d: recovery continued from checkpoints %v, want [%d]", tc.retain, from, tc.from)
		}
		feed(e, 60, horizon)
		sameBooks(t, fmt.Sprintf("retaining %d", tc.retain), servedBooks(t, e), want)
		e.close(t)
	}
}

// TestCheckpointWorldFailure restarts over a checkpointed directory with a
// world that fails to build. New fails with the world's error, and no
// checkpoint — good, or torn — is rejected, logged or unlinked: the world
// is no checkpoint's fault. A restart with the world then judges them as
// ever: the torn one is rejected and the older one restored. Without a
// data directory the error fails New too.
func TestCheckpointWorldFailure(t *testing.T) {
	const warmup, stop = 36, 80
	streams := simStreams(newTestSim(1), stop)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	mut := func(c *Config) {
		c.WarmupBuckets = warmup
		c.CompactEveryReports = -1
		c.checkpointAt = func(b netmodel.Bucket) bool { return (b+1)%12 == 0 }
	}
	dir := t.TempDir()
	e := openEnv(t, dir, mkSim, mut)
	for b := 0; b < stop; b++ {
		postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
		if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
			t.Fatalf("seal %d = %d (%s)", b, st, body)
		}
	}
	e.quiesce(t, netmodel.Bucket(stop-1))
	e.crash()
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	sort.Strings(ckpts)
	if len(ckpts) != 2 {
		t.Fatalf("the directory keeps %d checkpoints, want 2: %v", len(ckpts), ckpts)
	}

	errWorld := errors.New("the world would not build")
	for _, torn := range []bool{false, true} {
		if torn {
			st, err := os.Stat(ckpts[1])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(ckpts[1], st.Size()-1); err != nil {
				t.Fatal(err)
			}
		}
		var before [][]byte
		for _, path := range ckpts {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			before = append(before, data)
		}
		buf := captureLog(t)
		calls := 0
		srv, err := NewDeferred(func() (pipeline.Deps, error) {
			calls++
			return pipeline.Deps{}, errWorld
		}, envConfig(dir, mut))
		if err == nil {
			srv.Shutdown(context.Background())
			t.Fatalf("torn %v: a server was started without its world", torn)
		}
		if !errors.Is(err, errWorld) || calls != 1 {
			t.Errorf("torn %v: New failed with %v after %d calls for the world, want the world's error after 1", torn, err, calls)
		}
		if strings.Contains(buf.String(), "recovery.checkpoint_rejected") {
			t.Errorf("torn %v: a checkpoint was rejected for the world's failure:\n%s", torn, buf)
		}
		for i, path := range ckpts {
			if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, before[i]) {
				t.Errorf("torn %v: %s was touched (err %v)", torn, filepath.Base(path), err)
			}
		}
	}

	buf := captureLog(t)
	e = openEnv(t, dir, mkSim, mut)
	checkRecoveryConsistent(t, e)
	if got := strings.Count(buf.String(), `"msg":"recovery.checkpoint_rejected"`); got != 1 {
		t.Errorf("%d checkpoints rejected once the world builds, want the torn one:\n%s", got, buf)
	}
	if from, _ := recoveries(t, buf); len(from) != 1 || from[0] != 59 {
		t.Errorf("recovery continued from checkpoints %v, want [59]", from)
	}
	e.close(t)

	if _, err := NewDeferred(func() (pipeline.Deps, error) { return pipeline.Deps{}, errWorld }, envConfig("", nil)); !errors.Is(err, errWorld) {
		t.Errorf("without a data directory New failed with %v, want the world's error", err)
	}
}

// TestCheckpointVersion2 restarts over a data directory the build before
// sectioned checkpoints wrote (testdata/checkpoint-v2: the tiny world fed
// through bucket 25 and killed, its checkpoint cut after bucket 23, in
// version 2). The checkpoint is rejected, naming its version, and unlinked;
// recovery replays the history from zero — its first segment is there —
// and the daemon then serves what an uninterrupted one serves.
func TestCheckpointVersion2(t *testing.T) {
	const warmup, stop, horizon = 12, 26, 40
	streams := simStreams(tinySim(), horizon)
	mut := func(c *Config) {
		c.WarmupBuckets = warmup
		c.CompactEveryReports = -1
		c.checkpointAt = func(b netmodel.Bucket) bool { return (b+1)%12 == 0 }
	}
	feed := func(e *walEnv, from, to int) {
		t.Helper()
		for b := from; b < to; b++ {
			postWithRetry(t, e.ts.Client(), e.ts.URL+"/v1/ingest", jsonlBody(t, streams[b]))
			if st, body := postSeal(t, e.ts.Client(), e.ts.URL, netmodel.Bucket(b)); st != http.StatusAccepted {
				t.Fatalf("seal %d = %d (%s)", b, st, body)
			}
		}
		e.quiesce(t, netmodel.Bucket(to-1))
	}
	ref := openEnv(t, "", tinySim, mut)
	feed(ref, 0, horizon)
	want := servedBooks(t, ref)
	ref.close(t)

	dir := t.TempDir()
	fixture := filepath.Join("testdata", "checkpoint-v2")
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	const v2 = "checkpoint-0000000015.ckpt"
	if _, err := os.Stat(filepath.Join(dir, "wal-0000000001.log")); err != nil {
		t.Fatalf("the fixture holds no history from zero: %v", err)
	}
	buf := captureLog(t)
	e := openEnv(t, dir, tinySim, mut)
	checkRecoveryConsistent(t, e)
	var rejected []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"msg":"recovery.checkpoint_rejected"`) {
			rejected = append(rejected, line)
		}
	}
	if len(rejected) != 1 || !strings.Contains(rejected[0], v2+": format version 2") {
		t.Errorf("rejections %q, want %s's by its version", rejected, v2)
	}
	if from, _ := recoveries(t, buf); len(from) != 1 || from[0] != -1 {
		t.Errorf("recovery continued from checkpoints %v, want none", from)
	}
	if _, err := os.Stat(filepath.Join(dir, v2)); !os.IsNotExist(err) {
		t.Errorf("the rejected %s was kept: %v", v2, err)
	}
	feed(e, stop, horizon)
	sameBooks(t, "from a version-2 directory", servedBooks(t, e), want)
	e.close(t)
}
