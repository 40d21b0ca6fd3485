package trace

import (
	"bytes"
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

func TestJSONLRoundTrip(t *testing.T) {
	obs := sampleObs()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, obs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("round trip returned %d records", len(got))
	}
	for i := range obs {
		if got[i] != obs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], obs[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"prefix\": }\n")); err == nil {
		t.Error("expected decode error")
	}
}

func TestReadJSONLErrorIncludesOffset(t *testing.T) {
	in := "{\"prefix\":1,\"cloud\":2,\"device\":0,\"bucket\":3,\"samples\":10,\"mean_rtt_ms\":5,\"clients\":1}\n{\"prefix\": }\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("expected decode error")
	} else if !strings.Contains(err.Error(), "byte offset") || !strings.Contains(err.Error(), "observation 1") {
		t.Errorf("decode error lacks position context: %v", err)
	}
}
