package bench

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// commandDeps is every blameit/internal package each command links, by
// the name after "blameit/internal/". A dependency a command gains is a
// deliberate change to what that binary runs, so the pin only shrinks: a
// package that leaves a command leaves its list here, and one that joins
// fails this test until it is argued for. The daemon still builds the
// simulator (sim, faults, bgp) to answer traceroutes in process; the
// trace producer links neither the fault injectors (chaos) nor the
// traceroute engine (probe). Every command links ckpt, the daemon's state
// checkpoint codec: each stateful type (quartet and ingest among them)
// carries its own append/restore pair, and ckpt imports only netmodel.
var commandDeps = map[string][]string{
	"blameit/cmd/blameit": {
		"active", "alerting", "bgp", "ckpt", "core", "faults", "ingest", "metrics",
		"netmodel", "parallel", "pipeline", "predict", "probe", "quartet",
		"sim", "stats", "topology", "trace",
	},
	"blameit/cmd/blameit-experiments": {
		"active", "alerting", "baselines", "bgp", "ckpt", "core", "experiments",
		"faults", "ingest", "metrics", "netmodel", "parallel", "pipeline",
		"predict", "probe", "quartet", "reverse", "sim", "stats",
		"tomography", "topology", "trace",
	},
	"blameit/cmd/blameit-tracegen": {
		"bgp", "ckpt", "faults", "fleet", "ingest", "metrics", "netmodel",
		"parallel", "quartet", "sim", "stats", "topology", "trace",
	},
	"blameit/cmd/blameitd": {
		"active", "alerting", "bgp", "ckpt", "core", "faults", "ingest", "metrics",
		"netmodel", "parallel", "pipeline", "predict", "probe", "quartet",
		"server", "sim", "stats", "topology", "trace", "wal",
	},
}

// TestCommandDeps holds each command's internal dependency set, as
// `go list -deps` reports it, to commandDeps.
func TestCommandDeps(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Deps " "}}`, "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		cmd := fields[0]
		var got []string
		for _, dep := range fields[1:] {
			if name, ok := strings.CutPrefix(dep, "blameit/internal/"); ok {
				got = append(got, name)
			}
		}
		want, ok := commandDeps[cmd]
		if !ok {
			t.Errorf("%s has no pinned dependency set; add it: %q", cmd, got)
			continue
		}
		seen++
		for _, name := range got {
			if !slices.Contains(want, name) {
				t.Errorf("%s now links blameit/internal/%s, which its pinned set does not allow", cmd, name)
			}
		}
		for _, name := range want {
			if !slices.Contains(got, name) {
				t.Errorf("%s no longer links blameit/internal/%s: shrink its pinned set", cmd, name)
			}
		}
	}
	if seen != len(commandDeps) {
		t.Errorf("go list reported %d of the %d pinned commands", seen, len(commandDeps))
	}
}
