package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"blameit/internal/netmodel"
)

func sampleObs() []Observation {
	return []Observation{
		{Prefix: 1, Cloud: 2, Device: netmodel.Mobile, Bucket: 10, Samples: 25, MeanRTT: 48.5, Clients: 9},
		{Prefix: 3, Cloud: 0, Device: netmodel.NonMobile, Bucket: 11, Samples: 80, MeanRTT: 22.1, Clients: 30},
		{Prefix: 7, Cloud: 2, Device: netmodel.NonMobile, Bucket: 12, Samples: 12, MeanRTT: 105.0, Clients: 4},
	}
}

// TestJSONLRoundTrip: WriteJSONL emits one JSON object per line, each
// decoding back to its observation.
func TestJSONLRoundTrip(t *testing.T) {
	obs := sampleObs()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, obs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(obs) {
		t.Fatalf("wrote %d lines for %d records", len(lines), len(obs))
	}
	for i, line := range lines {
		var got Observation
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != obs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got, obs[i])
		}
	}
}
