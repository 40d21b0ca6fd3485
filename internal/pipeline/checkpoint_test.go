package pipeline

import (
	"bytes"
	"testing"
	"time"

	"blameit/internal/bgp"
	"blameit/internal/ckpt"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/sim"
	"blameit/internal/topology"
)

// checkpointSim is a small world with generated faults over three days,
// built afresh for each pipeline, as a restarted daemon rebuilds it.
func checkpointSim() *sim.Simulator {
	w := topology.Generate(topology.SmallScale(), 42)
	horizon := netmodel.Bucket(3 * netmodel.BucketsPerDay)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), horizon, 8).Faults
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, 7)
	return sim.New(w, tbl, faults.NewSchedule(fs), sim.DefaultConfig(99))
}

func encodeCheckpoint(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := ckpt.NewEncoder(&buf)
	if err := p.AppendCheckpoint(e); err != nil {
		t.Fatalf("AppendCheckpoint: %v", err)
	}
	if _, _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRestoresState cuts a checkpoint between two jobs, restores
// it into a pipeline built afresh over the same world, and steps both on
// across a day boundary (a relearn): every report must be the same, bytes
// and health, and the restored state must re-encode to the same bytes.
func TestCheckpointRestoresState(t *testing.T) {
	cut, end := netmodel.Bucket(2*netmodel.BucketsPerDay-37), netmodel.Bucket(2*netmodel.BucketsPerDay+36)
	if testing.Short() {
		cut = netmodel.Bucket(2*netmodel.BucketsPerDay - 4)
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	live := NewSim(checkpointSim(), cfg)
	live.Warmup(0, netmodel.BucketsPerDay)
	if err := live.Run(netmodel.BucketsPerDay, cut+1, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	body := encodeCheckpoint(t, live)
	encoded := time.Since(start)

	restored := NewSim(checkpointSim(), cfg)
	start = time.Now()
	d := ckpt.NewDecoder(body)
	if err := restored.RestoreCheckpoint(d); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	t.Logf("checkpoint at bucket %d: %d bytes, encoded in %v, restored in %v", cut, len(body), encoded, time.Since(start))
	if again := encodeCheckpoint(t, restored); !bytes.Equal(again, body) {
		t.Fatalf("restored state re-encodes to %d bytes, not the %d it came from", len(again), len(body))
	}
	if live.Quarantine().String() != restored.Quarantine().String() {
		t.Errorf("quarantine books %s, want %s", restored.Quarantine(), live.Quarantine())
	}

	reports := 0
	for b := cut + 1; b < end; b++ {
		want, err := live.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("bucket %d: report %v, want %v", b, got != nil, want != nil)
		}
		if want == nil {
			continue
		}
		reports++
		wj, _ := want.CanonicalJSON()
		gj, _ := got.CanonicalJSON()
		if !bytes.Equal(wj, gj) || want.Health != got.Health {
			t.Fatalf("report [%d, %d] of the restored pipeline differs from the live one's", want.From, want.To)
		}
	}
	if reports == 0 {
		t.Fatal("no report after the cut")
	}
}

// TestCheckpointRefusesOpenWindow holds AppendCheckpoint to the cut
// between jobs.
func TestCheckpointRefusesOpenWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := NewSim(checkpointSim(), cfg)
	var buf bytes.Buffer
	if err := p.AppendCheckpoint(ckpt.NewEncoder(&buf)); err == nil {
		t.Fatal("checkpoint before warm-up accepted")
	}
	p.Warmup(0, 12)
	if _, err := p.Step(12); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendCheckpoint(ckpt.NewEncoder(&buf)); err == nil || buf.Len() != 0 {
		t.Fatalf("checkpoint inside a window: err %v, %d bytes written", err, buf.Len())
	}
}
