package pipeline

import (
	"bytes"
	"strings"
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

// restore decodes sections on p's workers and adopts them into p.
func restore(p *Pipeline, sections [][]byte) error {
	dec, err := DecodeCheckpoint(sections, p.Cfg.Workers)
	if err != nil {
		return err
	}
	return p.AdoptCheckpoint(dec)
}

func encodeCheckpoint(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := ckpt.NewEncoder(&buf)
	if err := p.AppendCheckpoint(e); err != nil {
		t.Fatalf("AppendCheckpoint: %v", err)
	}
	e.EndSections()
	if _, _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRestoresState cuts a checkpoint between two jobs, restores
// it into a pipeline built afresh over the same world, and steps both on
// across a day boundary (a relearn): every report must be the same, bytes
// and health, and the restored state must re-encode to the same bytes,
// restored on one goroutine or several.
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

	sections, err := ckpt.Sections(body, CheckpointSections)
	if err != nil {
		t.Fatal(err)
	}
	var restored *Pipeline
	for _, workers := range []int{4, 1} {
		rcfg := cfg
		rcfg.Workers = workers
		restored = NewSim(checkpointSim(), rcfg)
		start = time.Now()
		if err := restore(restored, sections); err != nil {
			t.Fatalf("restore at %d workers: %v", workers, err)
		}
		t.Logf("checkpoint at bucket %d: %d bytes, encoded in %v, restored at %d workers in %v", cut, len(body), encoded, workers, time.Since(start))
		if again := encodeCheckpoint(t, restored); !bytes.Equal(again, body) {
			t.Fatalf("state restored at %d workers re-encodes to %d bytes, not the %d it came from", workers, len(again), len(body))
		}
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

// TestCheckpointAdoptChecksTheWorld decodes a checkpoint whose state names
// a key, a cloud or a BGP event outside the world, each in turn: the
// decode, which knows no world, takes it, and the adoption into a pipeline
// over the world refuses it, naming the section.
func TestCheckpointAdoptChecksTheWorld(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	live := NewSim(checkpointSim(), cfg)
	live.Warmup(0, 12)
	if err := live.Run(12, 24, nil); err != nil {
		t.Fatal(err)
	}
	sections, err := ckpt.Sections(encodeCheckpoint(t, live), CheckpointSections)
	if err != nil {
		t.Fatal(err)
	}
	keys := live.Table.Keys().Len()
	for _, tc := range []struct {
		name, section string
		outside       func(*Decoded)
	}{
		{"key", "learner", func(dec *Decoded) { dec.learner.Middle.Len += netmodel.NumDeviceClasses }},
		{"cloud", "thresholds", func(dec *Decoded) {
			dec.thresholds.Cloud.Len = (len(live.World.Clouds) + 1) * netmodel.NumDeviceClasses
		}},
		{"client-key", "client predictor", func(dec *Decoded) { dec.clients.Hist.Len = keys + 1 }},
		{"bgp-event", "baseliner", func(dec *Decoded) { dec.baseliner.Position = 1 << 30 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := DecodeCheckpoint(sections, 1)
			if err != nil {
				t.Fatal(err)
			}
			tc.outside(dec)
			err = NewSim(checkpointSim(), cfg).AdoptCheckpoint(dec)
			if err == nil || !strings.HasPrefix(err.Error(), tc.section+": ") {
				t.Fatalf("adopted with %v, want the %s's refusal", err, tc.section)
			}
		})
	}
}

// TestCheckpointSectionErrorsInOrder damages two sections of a checkpoint
// and restores it on several goroutines: the error names both, in section
// order, whichever finished first.
func TestCheckpointSectionErrorsInOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	live := NewSim(checkpointSim(), cfg)
	live.Warmup(0, 12)
	if err := live.Run(12, 24, nil); err != nil {
		t.Fatal(err)
	}
	sections, err := ckpt.Sections(encodeCheckpoint(t, live), CheckpointSections)
	if err != nil {
		t.Fatal(err)
	}
	// A trailing byte fails each damaged section's decoder.
	for _, i := range []int{0, 4} {
		sections[i] = append(bytes.Clone(sections[i]), 0)
	}
	cfg.Workers = 3
	err = restore(NewSim(checkpointSim(), cfg), sections)
	if err == nil {
		t.Fatal("damaged sections restored")
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "learner: ") || !strings.HasPrefix(lines[1], "baseliner: ") {
		t.Errorf("restore failed with %q, want the learner's error, then the baseliner's", err)
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
