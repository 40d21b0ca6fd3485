package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
)

// TestPprofOnlyOnItsOwnListener starts the real binary with -pprof-addr:
// the profiling listener must answer a CPU profile request, and the public
// address must not serve /debug/pprof/ at all.
func TestPprofOnlyOnItsOwnListener(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess run skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "blameitd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building blameitd: %v\n%s", err, out)
	}
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
