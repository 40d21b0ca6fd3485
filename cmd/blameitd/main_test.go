package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"blameit/internal/netmodel"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// buildDaemon builds this command into a temporary directory, with the
// race detector when the test runs under it, or skips the test without a
// go toolchain.
func buildDaemon(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "blameitd")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	if out, err := exec.Command(goBin, append(args, ".")...).CombinedOutput(); err != nil {
		t.Fatalf("building blameitd: %v\n%s", err, out)
	}
	return bin
}

// TestPprofOnlyOnItsOwnListener starts the real binary with -pprof-addr:
// the profiling listener must answer a CPU profile request, and the public
// address must not serve /debug/pprof/ at all.
func TestPprofOnlyOnItsOwnListener(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess run skipped in -short mode")
	}
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-warmup", "0", "-days", "1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	var public, prof string
	sc := bufio.NewScanner(stdout)
	for public == "" && sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "blameitd pprof on "); ok {
			prof = "http://" + strings.Fields(rest)[0]
		}
		if rest, ok := strings.CutPrefix(line, "blameitd listening on "); ok {
			public = "http://" + strings.Fields(rest)[0]
		}
	}
	if public == "" || prof == "" {
		t.Fatalf("daemon printed public %q, pprof %q", public, prof)
	}
	go io.Copy(io.Discard, stdout)

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(url)
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
	if code, _ := get(public + "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("public /debug/pprof/ = %d, want 404", code)
	}
	if code, _ := get(public + "/healthz"); code != http.StatusOK {
		t.Errorf("public /healthz = %d, want 200", code)
	}
	if code, body := get(prof + "/debug/pprof/profile?seconds=1"); code != http.StatusOK || len(body) == 0 {
		t.Errorf("pprof profile = %d with %d bytes, want 200 and a profile", code, len(body))
	}
}

// TestWorldBuiltLogEvent pins the world.built event's keys and values: the
// scale and days it was started with, and the times sim.Seeded recorded,
// in milliseconds, the total at least the sum of its parts.
func TestWorldBuiltLogEvent(t *testing.T) {
	s, err := sim.Seeded(topology.SmallScale(), 42, "random", netmodel.BucketsPerDay, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, nil)))
	t.Cleanup(func() { slog.SetDefault(old) })
	logWorldBuilt("small", 1, s.Build)

	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("log %q is not one JSON event: %v", buf.String(), err)
	}
	keys := make([]string, 0, len(ev))
	for k := range ev {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"days", "faults_ms", "level", "msg", "scale", "table_ms", "time", "topology_ms", "total_ms"}
	if !slices.Equal(keys, want) {
		t.Fatalf("world.built keys %v, want %v", keys, want)
	}
	if ev["msg"] != "world.built" || ev["level"] != "INFO" || ev["scale"] != "small" || ev["days"] != 1.0 {
		t.Errorf("world.built = %v", ev)
	}
	sum := 0.0
	for _, k := range []string{"topology_ms", "faults_ms", "table_ms"} {
		ms, _ := ev[k].(float64)
		if ms <= 0 {
			t.Errorf("%s = %v, want a positive time", k, ev[k])
		}
		sum += ms
	}
	if total, _ := ev["total_ms"].(float64); total < sum-1e-9 {
		t.Errorf("total_ms %v is less than its parts, %v", total, sum)
	}
}

// TestRestartOverCheckpoint restarts the real binary, killed with kill -9
// after a day's end, over its data directory: the world is built while
// the journal is read, and the restart logs world.built and
// recovery.complete once each, the latter from the day-end checkpoint
// with the open's read and world-wait split. Under -race the binary is
// built with the race detector, so the concurrent start runs under it.
func TestRestartOverCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess run skipped in -short mode")
	}
	bin := buildDaemon(t)
	args := []string{"-addr", "127.0.0.1:0", "-warmup", "0", "-days", "1", "-data-dir", t.TempDir(), "-fsync", "off"}
	start := func() (base string, cmd *exec.Cmd, stderr *bytes.Buffer) {
		t.Helper()
		cmd = exec.Command(bin, args...)
		stderr = new(bytes.Buffer)
		cmd.Stderr = stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		sc := bufio.NewScanner(stdout)
		for base == "" && sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "blameitd listening on "); ok {
				base = "http://" + strings.Fields(rest)[0]
			}
		}
		if base == "" {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("daemon never listened:\n%s", stderr)
		}
		go io.Copy(io.Discard, stdout)
		return base, cmd, stderr
	}
	// kill waits for the stderr copy too: the log is read after it.
	kill := func(cmd *exec.Cmd) {
		t.Helper()
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait()
	}
	client := &http.Client{Timeout: 60 * time.Second}
	post := func(url string, body []byte) {
		t.Helper()
		for {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s: %v", url, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusAccepted:
				return
			case http.StatusTooManyRequests:
				time.Sleep(50 * time.Millisecond)
			default:
				t.Fatalf("POST %s = %d", url, resp.StatusCode)
			}
		}
	}

	base, cmd, _ := start()
	feed, err := sim.Seeded(topology.SmallScale(), 42, "random", netmodel.BucketsPerDay, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	for b := netmodel.Bucket(0); b < netmodel.BucketsPerDay; b++ {
		body.Reset()
		if err := trace.WriteJSONL(&body, feed.ObservationsAt(b, nil)); err != nil {
			t.Fatal(err)
		}
		post(base+"/v1/ingest", body.Bytes())
	}
	post(base+"/v1/seal", []byte(fmt.Sprintf(`{"through":%d}`, netmodel.BucketsPerDay-1)))
	deadline := time.Now().Add(5 * time.Minute)
	for {
		var h struct {
			WAL struct {
				CheckpointBucket int `json:"checkpoint_bucket"`
			} `json:"wal"`
		}
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
		}
		if err == nil && h.WAL.CheckpointBucket == netmodel.BucketsPerDay-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after the day's end (last /healthz: %+v, %v)", h, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	kill(cmd)

	_, cmd, stderr := start()
	kill(cmd)
	log := stderr.String()
	if n := strings.Count(log, " INFO world.built "); n != 1 {
		t.Errorf("world.built logged %d times, want once:\n%s", n, log)
	}
	if n := strings.Count(log, " INFO recovery.complete "); n != 1 {
		t.Fatalf("recovery.complete logged %d times, want once:\n%s", n, log)
	}
	for _, want := range []string{fmt.Sprintf("checkpoint_bucket=%d ", netmodel.BucketsPerDay-1), "replayed_buckets=0 ", "read_ms=", "world_wait_ms=", "restore_ms="} {
		if !strings.Contains(log, want) {
			t.Errorf("recovery.complete without %q:\n%s", want, log)
		}
	}
}
