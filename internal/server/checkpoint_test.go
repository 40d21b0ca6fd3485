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
	"runtime"
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
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
	"blameit/internal/wal"
)

// books is what one arm serves at the end: the canonical report stream,
// the report index, the verdicts, and the quarantine's books; and, once
// closed, the backend's state as a checkpoint encodes it.
type books struct {
	reports, index, verdicts []byte
	quarantine               string
	state                    []byte
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

// closedState is the backend's state once e is closed, as a checkpoint
// encodes it.
func closedState(t *testing.T, e *walEnv) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := ckpt.NewEncoder(&buf)
	if err := e.srv.Pipeline().AppendCheckpoint(enc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBooks fails unless got serves exactly what want serves, and holds
// the same state when want's is known.
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
	if want.state != nil && !bytes.Equal(got.state, want.state) {
		t.Errorf("%s: the backend's state diverged (%d vs %d encoded bytes)", arm, len(got.state), len(want.state))
	}
}

// lastHeld is the last bucket the daemon has read or holds records of.
func (e *walEnv) lastHeld() netmodel.Bucket {
	q := e.srv.q
	q.mu.Lock()
	defer q.mu.Unlock()
	last := q.frontier - 1
	for b := range q.pending {
		last = max(last, b)
	}
	return last
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
// every job — on the raw feed, the raw feed past the periodic baseline
// refresh of restored paths, the aggregate feed, a drain flush and a chaos
// profile. Every recovered arm must serve what the uninterrupted one
// serves — report bytes, index, verdicts and quarantine books — and hold
// the same state once closed, byte for byte as a checkpoint encodes it. The
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
		served := func(e *walEnv) books {
			b := servedBooks(t, e)
			e.close(t)
			b.state = closedState(t, e)
			return b
		}
		var want books
		if ref != nil {
			want = *ref
		} else {
			want = served(run("", mut))
		}
		sameBooks(t, "replay from zero", served(run(t.TempDir(), mut)), want)

		for _, workers := range []int{1, 2} {
			arm := fmt.Sprintf("checkpointed at %d workers", workers)
			buf := captureLog(t)
			e := run(t.TempDir(), func(c *Config) { ckMut(c); c.Pipeline.Workers = workers })
			if wh := e.srv.WALHealth(); wh.CheckpointBucket < 0 {
				t.Errorf("%s: the last incarnation knows no checkpoint: %+v", arm, wh)
			}
			sameBooks(t, arm, served(e), want)
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

	t.Run("refresh", func(t *testing.T) {
		// The background prober refreshes each path's baseline every
		// PeriodBuckets (144), at an offset hashed per path: past bucket
		// 144 + warmup each restore is followed by refreshes of restored
		// paths, appending to the histories the restore cut, and the
		// catch-up after the afterseal and midbatch kills replays some.
		if every := pipeline.DefaultConfig().Background.PeriodBuckets; every != 144 {
			t.Fatalf("PeriodBuckets %d: the crash points below assume 144", every)
		}
		const horizon = 216
		streams := simStreams(newTestSim(1), horizon)
		points := []crashPoint{
			{bucket: 152, mode: "boundary"},
			{bucket: 176, mode: "afterseal"},
			{bucket: 193, mode: "midbatch"},
			{bucket: 205, mode: "afterseal"},
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
		want.state = closedState(t, zero)
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
// daemon's directory — torn, cut short, a body that does not decode, a
// state that decodes but names a key, a cloud or a BGP event outside the
// world, seams a power loss took back — and restarts over each. Every damaged
// checkpoint is rejected, logged and unlinked, recovery falls back to an
// older one or to zero, and the daemon then serves what the uninterrupted
// one does. A history cut after the newest seam costs no checkpoint. Once
// compaction has unlinked the history before the older checkpoint, zero
// is no fallback: with both checkpoints damaged the daemon refuses to
// start, naming both, as it refuses a directory in format version 4 or 5.
func TestCheckpointRejected(t *testing.T) {
	const warmup, stop, horizon = 36, 80, 96
	streams := simStreams(newTestSim(1), horizon)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	mut := func(c *Config) {
		c.WarmupBuckets = warmup
		c.CompactEveryReports = -1 // zero stays a fallback
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
	keys, clouds := ref.srv.Pipeline().Table.Keys().Len(), len(ref.srv.Pipeline().World.Clouds)
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
	// outside rewrites a checkpoint, CRC and all, with the count that opens
	// or closes one pipeline section set to n: state the decode takes, as
	// it knows no world, and the world it is adopted into does not hold.
	outside := func(path string, sec int, opens bool, n int) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := wal.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		secs, err := ckpt.Sections(ck.Body, pipeline.CheckpointSections+2)
		if err != nil {
			t.Fatal(err)
		}
		if opens {
			_, k := binary.Uvarint(secs[sec])
			secs[sec] = append(binary.AppendUvarint(nil, uint64(n)), secs[sec][k:]...)
		} else {
			// The baseliner's section closes with its BGP listener's position.
			k := len(binary.AppendUvarint(nil, uint64(probe.DecodeBaseliner(ckpt.NewDecoder(secs[sec])).Position)))
			secs[sec] = binary.AppendUvarint(slices.Clip(secs[sec][:len(secs[sec])-k]), uint64(n))
		}
		var out bytes.Buffer
		if _, err := wal.EncodeCheckpoint(&out, ck, func(e *ckpt.Encoder) error {
			for _, sec := range secs {
				e.Mark()
				e.Raw(sec)
			}
			e.EndSections()
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
		why      string          // in the rejection, when set
	}{
		{"torn", func(dir string) { cutFile(filepath.Join(dir, newest), func(n int64) int64 { return n - 1 }) }, 1, older, ""},
		{"truncated", func(dir string) { cutFile(filepath.Join(dir, newest), func(n int64) int64 { return n / 3 }) }, 1, older, ""},
		{"undecodable", func(dir string) { undecodable(filepath.Join(dir, newest)) }, 1, older, ""},
		// Decoded beside the world's build, these are refused once it is
		// built: a key, a cloud and a BGP event outside it.
		{"outside-keys", func(dir string) { outside(filepath.Join(dir, newest), 2, true, keys+1) }, 1, older,
			fmt.Sprintf("client predictor: client histories of %d paths, the key space has %d", keys+1, keys)},
		{"outside-clouds", func(dir string) {
			outside(filepath.Join(dir, newest), 1, true, (clouds+1)*netmodel.NumDeviceClasses)
		}, 1, older, "thresholds: cloud thresholds of"},
		{"outside-bgp-events", func(dir string) { outside(filepath.Join(dir, newest), 4, false, 1<<30) }, 1, older,
			"baseliner: listener position 1073741824 past the event log"},
		{"both", func(dir string) {
			undecodable(filepath.Join(dir, newest))
			cutFile(filepath.Join(dir, filepath.Base(ckpts[0])), func(n int64) int64 { return 100 })
		}, 2, -1, ""},
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
		}, 2, -1, ""},
		{"seam-cut", func(dir string) {
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			sort.Strings(segs)
			cutFile(segs[len(segs)-1], func(n int64) int64 { return n / 2 })
		}, 0, 71, ""},
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
			if tc.why != "" && !strings.Contains(buf.String(), tc.why) {
				t.Errorf("no rejection says %q:\n%s", tc.why, buf)
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
			// A cut journal lost the batches after the cut, as a disk that
			// lost them would: the feeder posts again what the daemon does
			// not hold.
			feed(e, int(e.lastHeld())+1, stop)
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

	// Directories of older formats: format-v4 a history segment alone;
	// format-v5 the tiny world fed through bucket 25 and killed, with its
	// accepted family, its reports and a version-2 checkpoint cut after
	// bucket 23. Each is refused, naming its version, and left as it was.
	for _, version := range []int{4, 5} {
		t.Run(fmt.Sprintf("format-v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			fixture := filepath.Join("..", "wal", "testdata", fmt.Sprintf("format-v%d", version))
			entries, err := os.ReadDir(fixture)
			if err != nil {
				t.Fatal(err)
			}
			old := map[string][]byte{}
			for _, de := range entries {
				data, err := os.ReadFile(filepath.Join(fixture, de.Name()))
				if err != nil {
					t.Fatal(err)
				}
				old[de.Name()] = data
				if err := os.WriteFile(filepath.Join(dir, de.Name()), data, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := newEnvServer(dir, mkSim, mut)
			if err == nil {
				srv.Shutdown(context.Background())
				t.Fatalf("a format version %d directory was served", version)
			}
			if want := fmt.Sprintf("format version %d", version); !strings.Contains(err.Error(), want) {
				t.Fatalf("the refusal does not name the version: %v", err)
			}
			for name, data := range old {
				if now, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(now, data) {
					t.Errorf("the refused start touched %s (err %v)", name, err)
				}
			}
		})
	}
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
		if !strings.Contains(buf.String(), `"journal_segments":1,`) {
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
// the sections' trailer, the pipeline's state, the report log's headers
// and the ingest queue's records — to arbitrary bytes: no input panics it; each is rejected or
// restored; and a restored checkpoint re-encodes to exactly the bytes it
// came from, so nothing a restore accepts is changed by it. Each input is
// tried as it is, then with its CRC made to match, decoded on one
// goroutine and on several, and adopted into a pipeline over the world.
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
	// A queue holding a stale record, a pending raw run and two partials.
	q := newIngestQueue(0, true)
	q.frontier, q.watermark = 24, 24
	q.pushLocked(append(probeSim.ObservationsAt(20, nil)[:1], probeSim.ObservationsAt(25, nil)[:3]...), nil)
	obs26 := probeSim.ObservationsAt(26, nil)
	q.pushLocked(nil, []*quartet.Partial{
		partialOf(quartet.PartialID{Agent: 1, Seq: 2}, 26, obs26[:2]),
		partialOf(quartet.PartialID{Agent: 0, Seq: 5}, 26, obs26[2:3]),
	})
	noCut := func() error { return nil }
	encode := func(pos wal.Checkpoint, pipe *pipeline.Pipeline, headers []storedReport, q *ingestQueue) ([]byte, error) {
		queue, err := q.snapshot(noCut)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		_, err = wal.EncodeCheckpoint(&buf, pos, func(e *ckpt.Encoder) error { return appendState(e, pipe, headers, queue) })
		return buf.Bytes(), err
	}
	seed, err := encode(wal.Checkpoint{Reads: 12, Bucket: 23, Reports: 4}, p, headers, q)
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
	const sections = pipeline.CheckpointSections + 2
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
			st, err := decodeState(ck.Body, workers)
			if err != nil {
				return
			}
			pipe := pipeline.New(deps, pcfg)
			if err := pipe.AdoptCheckpoint(st.pipe); err != nil {
				return
			}
			again, err := encode(ck, pipe, st.headers, st.queue)
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

// TestCheckpointReportsByReference restarts a daemon over a directory of
// several checkpoints, one every twelve buckets. The restored log holds
// its reports by reference: every retained report is served
// byte-identical to an uninterrupted daemon's, read back from the
// reports family, while at most residentReports keep their bytes in
// memory — live, right after the restart and once fed on. The in-memory
// daemon keeps every report's bytes. A report record damaged on disk
// after the open is never served: its read gets a 500, counted in
// /metrics, and the other reports are served as before.
func TestCheckpointReportsByReference(t *testing.T) {
	const warmup, stop, horizon = 36, 80, 96
	streams := simStreams(newTestSim(1), horizon)
	mkSim := func() *sim.Simulator { return newTestSim(1) }
	mut := func(c *Config) {
		c.WarmupBuckets = warmup
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
	resident := func(e *walEnv, when string, most int) {
		t.Helper()
		if n := e.srv.reports.resident(); n > most {
			t.Errorf("%s: %d reports hold their bytes in memory, want at most %d", when, n, most)
		}
	}
	ref := openEnv(t, "", mkSim, mut)
	feed(ref, 0, horizon)
	want := servedBooks(t, ref)
	if n, all := ref.srv.reports.resident(), len(ref.srv.reports.reports); n != all || all < 2*residentReports {
		t.Errorf("in memory, %d of %d reports hold their bytes: want all of them, and more than a few", n, all)
	}
	ref.close(t)

	dir := t.TempDir()
	e := openEnv(t, dir, mkSim, mut)
	feed(e, 0, stop)
	resident(e, "live", residentReports)
	e.crash()
	buf := captureLog(t)
	e = openEnv(t, dir, mkSim, mut)
	checkRecoveryConsistent(t, e)
	if from, _ := recoveries(t, buf); len(from) != 1 || from[0] != 71 {
		t.Errorf("recovery continued from checkpoints %v, want [71]", from)
	}
	resident(e, "restarted", residentReports)
	feed(e, stop, horizon)
	resident(e, "fed on", residentReports)
	sameBooks(t, "restarted", servedBooks(t, e), want)

	var old storedReport
	e.srv.reports.each(func(sr *storedReport) {
		if old.ref.Segment == 0 && sr.canonical == nil {
			old = *sr
		}
	})
	if old.ref.Segment == 0 {
		t.Fatal("no retained report is held by reference")
	}
	seg := filepath.Join(dir, fmt.Sprintf("reports-%010d.log", old.ref.Segment))
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, old.ref.Offset+old.ref.Length-1); err != nil {
		t.Fatal(err)
	}
	last[0] ^= 1
	if _, err := f.WriteAt(last, old.ref.Offset+old.ref.Length-1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := e.ts.Client().Get(e.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if status, body := get(fmt.Sprintf("/v1/reports/%d", old.to)); status != http.StatusInternalServerError {
		t.Errorf("the damaged report [%d, %d] was served %d: %.80s", old.from, old.to, status, body)
	}
	_, body := get("/metrics")
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if n := snap.Counters["server.reports.read_failed"]; n != 1 {
		t.Errorf("server.reports.read_failed = %d, want 1", n)
	}
	var others []netmodel.Bucket
	e.srv.reports.each(func(sr *storedReport) {
		if sr.seq != old.seq {
			others = append(others, sr.to)
		}
	})
	for _, to := range others {
		if status, _ := get(fmt.Sprintf("/v1/reports/%d", to)); status != http.StatusOK {
			t.Errorf("report %d beside the damaged one was served %d", to, status)
		}
	}
	e.close(t)
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

// TestCheckpointConcurrentPushes cuts the journal, with a snapshot of the
// queue, four times after every read while another goroutine pushes
// batches of either feed, each raw one told apart by its RTT and some
// late: a batch pushed during a cut must land in the snapshot or in the
// journal after the seam, never both and never neither. Restored from
// each cut's checkpoint and replayed, the queue must hold exactly what the
// live one holds. Run with -race.
func TestCheckpointConcurrentPushes(t *testing.T) {
	dir := t.TempDir()
	wcfg := wal.Config{Fsync: wal.SyncOff, Meta: "concurrent"}
	lg, _, err := wal.Open(dir, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	q := newIngestQueue(0, true)
	q.recover(&walState{log: lg}, &wal.Recovery{})
	stop, pushed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pushed)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			b := netmodel.Bucket(k / 8)
			if k%7 == 0 {
				b = 0 // late once bucket 0 is read
			}
			obs := obsAt(b, 2)
			obs[0].MeanRTT = float64(k)
			if err := q.Push(obs); err != nil {
				t.Error(err)
				return
			}
			if k%3 == 0 {
				if _, err := q.PushCells(ingest.AggCellsOf(partialOf(quartet.PartialID{Agent: k}, b, obs[1:]), nil)); err != nil {
					t.Error(err)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	type cut struct {
		pos   wal.Checkpoint
		queue []byte
	}
	var cuts []cut
	ctx := context.Background()
	for b := netmodel.Bucket(0); b < 24; b++ {
		q.SealThrough(b)
		if _, err := q.ObservationsAt(ctx, b, nil); err != nil {
			t.Fatal(err)
		}
		for range 4 {
			c := cut{pos: wal.Checkpoint{Reads: int(b) + 1, Bucket: b}}
			c.queue, err = q.snapshot(func() (err error) {
				c.pos, err = lg.Cut(c.pos)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			cuts = append(cuts, c)
		}
	}
	close(stop)
	<-pushed
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	live := queueBooks(q)

	segs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	for i, c := range cuts {
		// A directory holding the journal and this cut's checkpoint alone.
		at := t.TempDir()
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(at, filepath.Base(seg)), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		var ck bytes.Buffer
		if _, err := wal.EncodeCheckpoint(&ck, c.pos, func(e *ckpt.Encoder) error { e.Raw(c.queue); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(at, fmt.Sprintf("checkpoint-%010d.ckpt", c.pos.Reads)), ck.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		held := newIngestQueue(0, true)
		wcfg.Restore = func(ck wal.Checkpoint, _ *wal.Recovery) (func() error, error) {
			return nil, held.restoreCheckpoint(ck.Body)
		}
		lg, rec, err := wal.Open(at, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
		if rec.Checkpoint == nil {
			t.Fatalf("cut %d: the checkpoint was not restored: %v", i, rec.Rejected)
		}
		held.recover(nil, rec)
		for {
			held.mu.Lock()
			next, ok := held.replay, held.replayLocked()
			held.mu.Unlock()
			if !ok {
				break
			}
			if _, err := held.ObservationsAt(ctx, next[0].Bucket, nil); err != nil {
				t.Fatalf("cut %d: %v", i, err)
			}
		}
		if got := queueBooks(held); got != live {
			t.Fatalf("restored from cut %d, after read %d, and replayed, the queue holds\n%s\nthe live one\n%s", i, c.pos.Reads, got, live)
		}
	}
}

// queueBooks renders what the queue holds: its frontier and watermark,
// its stale records and each pending bucket's stream.
func queueBooks(q *ingestQueue) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "frontier %d watermark %d records %d stale %v\n", q.frontier, q.watermark, q.records, q.stale)
	buckets := make([]netmodel.Bucket, 0, len(q.pending))
	for bk := range q.pending {
		buckets = append(buckets, bk)
	}
	slices.Sort(buckets)
	for _, bk := range buckets {
		pb := q.pending[bk]
		var agg []trace.Observation
		if pb.agg != nil {
			agg = pb.agg.Observations(nil)
		}
		fmt.Fprintf(&b, "bucket %d: %d records, raw %v, partials %v\n", bk, pb.records, pb.raw, agg)
	}
	return b.String()
}
