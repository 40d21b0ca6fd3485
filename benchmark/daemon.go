//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles the real cmd/blameitd into dir.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "blameitd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/blameitd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/blameitd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one blameitd child process on a loopback port of its own
// choosing. The benchmark knows it only as an operator would: its flags,
// its HTTP surface, its data directory and its resource usage.
type daemon struct {
	cmd    *exec.Cmd
	base   string    // http://127.0.0.1:port
	execAt time.Time // just before the process was started
	stderr bytes.Buffer
	waited chan struct{} // closed once the stdout drain has finished
}

// startDaemon execs blameitd with its default flags apart from -addr,
// -seed, -days and (when dataDir is set) -data-dir, and returns once the
// daemon has printed its listening address — which, with a data
// directory, is after recovery has replayed the journal.
func startDaemon(ctx context.Context, bin string, seed int64, dataDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-seed", strconv.FormatInt(seed, 10), "-days", strconv.Itoa(worldDays)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	d := &daemon{cmd: exec.CommandContext(ctx, bin, args...), waited: make(chan struct{})}
	// The child must not outlive the benchmark, however the benchmark dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.execAt = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	const marker = "blameitd listening on "
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), marker); ok {
			addr, _, _ := strings.Cut(rest, " ")
			d.base = "http://" + addr
			break
		}
	}
	if d.base == "" {
		close(d.waited)
		d.kill()
		return nil, fmt.Errorf("blameitd exited before listening: %s", strings.TrimSpace(d.stderr.String()))
	}
	go func() {
		// Keep the pipe drained so the daemon never blocks on a print.
		_, _ = io.Copy(io.Discard, stdout)
		close(d.waited)
	}()
	return d, nil
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat. The kernel
// ABI fixes it at 100 on every Linux architecture Go supports.
const userHZ = 100

// cpuSeconds returns the user+system CPU time the running daemon has
// consumed so far, over all its threads, from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", d.cmd.Process.Pid, data)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / userHZ, nil
}

// peakRSSMB returns the running daemon's peak resident set size (VmHWM
// in /proc/<pid>/status). The child's ru_maxrss would not do: it starts
// at the forking parent's resident size, which here is the larger one.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// kill sends SIGKILL and reaps the child. Safe to call on an already
// reaped daemon.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		_ = d.cmd.Process.Kill()
		<-d.waited
		_ = d.cmd.Wait()
	}
}

// terminate sends SIGTERM and waits for the graceful drain to exit 0.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-d.waited
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("blameitd drain: %w: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
