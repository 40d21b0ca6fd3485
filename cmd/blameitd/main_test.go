package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
