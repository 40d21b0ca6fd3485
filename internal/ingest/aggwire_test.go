package ingest

import (
	"bytes"
	"reflect"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/quartet"
)

func sampleAggCells() []AggCell {
	return []AggCell{
		{Agent: 3, Epoch: 1, Seq: 42, Bucket: 288, Prefix: 7, Cloud: 2, Device: 1, Samples: 15, MeanRTT: 83.25, Clients: 4},
		{Agent: 3, Epoch: 1, Seq: 42, Bucket: 288, Prefix: 9, Cloud: 0, Device: 0, Samples: 11, MeanRTT: 40.125, Clients: 2},
		{Agent: 0, Epoch: 0, Seq: 1, Bucket: 288, Prefix: 0, Cloud: 1, Device: 2, Samples: 30, MeanRTT: 121.0625, Clients: 9},
	}
}

// TestAggWireRoundTrip: WriteAggJSONL emits the canonical shape, the
// batch decoder reproduces the cells exactly, and each line goes through
// the alloc-free scanner rather than the encoding/json fallback.
func TestAggWireRoundTrip(t *testing.T) {
	cells := sampleAggCells()
	var buf bytes.Buffer
	if err := WriteAggJSONL(&buf, cells); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAggBatch(buf.Bytes(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Fatalf("round trip changed cells:\n got %+v\nwant %+v", got, cells)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var c AggCell
		if !aggShape.scanLine(append(line, '\n'), &c) {
			t.Errorf("line %d did not take the canonical fast path: %s", i, line)
		} else if c != cells[i] {
			t.Errorf("fast path decoded %+v, want %+v", c, cells[i])
		}
	}
}

// TestAggWireFallbackAndSalvage: non-canonical JSON still decodes via
// the fallback, truly bad lines abort in strict mode with a positioned
// error, and salvage mode diverts them and keeps going.
func TestAggWireFallbackAndSalvage(t *testing.T) {
	reordered := []byte(`{"bucket":5, "agent":1, "epoch":0, "seq":9, "prefix":3, "cloud":1, "device":0, "samples":12, "mean_rtt_ms":55.5, "clients":3}` + "\n")
	var c AggCell
	if aggShape.scanLine(reordered, &c) {
		t.Fatal("reordered line should not match the canonical shape")
	}
	got, err := DecodeAggBatch(reordered, nil, nil)
	if err != nil {
		t.Fatalf("fallback decode: %v", err)
	}
	want := AggCell{Agent: 1, Epoch: 0, Seq: 9, Bucket: 5, Prefix: 3, Cloud: 1, Device: 0, Samples: 12, MeanRTT: 55.5, Clients: 3}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("fallback decoded %+v, want %+v", got, want)
	}

	mixed := append([]byte(`{"agent":zap}`+"\n"), reordered...)
	if _, err := DecodeAggBatch(mixed, nil, nil); err == nil {
		t.Fatal("strict mode accepted a malformed line")
	}
	bad := 0
	got, err = DecodeAggBatch(mixed, nil, func(line []byte) { bad++ })
	if err != nil || bad != 1 || len(got) != 1 || got[0] != want {
		t.Fatalf("salvage mode: err=%v bad=%d got=%+v", err, bad, got)
	}
}

// TestAggCellsOfRoundTrips: flattening partials to wire cells and
// regrouping them with PartialsOf reproduces each partial's identity and
// cells exactly, in order of first appearance, even when the body
// interleaves two partials' cells.
func TestAggCellsOfRoundTrips(t *testing.T) {
	var parts []*quartet.Partial
	for _, id := range []quartet.PartialID{{Agent: 2, Epoch: 1, Seq: 7}, {Agent: 0, Epoch: 0, Seq: 7}} {
		p := quartet.NewPartial(id, 12)
		for _, c := range sampleAggCells() {
			o := c.Observation()
			o.Bucket = 12
			p.Observe(o)
		}
		parts = append(parts, p)
	}
	cells := AggCellsOf(parts[0], nil)
	if len(cells) != len(parts[0].Cells) {
		t.Fatalf("flattened %d cells, partial has %d", len(cells), len(parts[0].Cells))
	}
	for _, c := range cells {
		if c.ID() != parts[0].ID || c.Bucket != 12 {
			t.Fatalf("cell %+v lost its partial identity", c)
		}
	}
	other := AggCellsOf(parts[1], nil)
	body := append(append(append([]AggCell{}, cells[:1]...), other...), cells[1:]...)
	back := PartialsOf(body)
	if len(back) != 2 || !reflect.DeepEqual(*back[0], *parts[0]) || !reflect.DeepEqual(*back[1], *parts[1]) {
		t.Fatalf("regrouped partials diverge:\n got %+v\nwant %+v", back, parts)
	}
}

// Negative and boundary values must survive the fast path (a reborn
// agent's epoch is positive, but buckets and IDs near zero appear in
// every test world).
func TestAggWireBoundaryValues(t *testing.T) {
	cells := []AggCell{
		{Agent: 0, Epoch: 0, Seq: 0, Bucket: 0, Prefix: 0, Cloud: 0, Device: 0, Samples: 0, MeanRTT: 0, Clients: 0},
		{Agent: 1 << 20, Epoch: 3, Seq: 1 << 40, Bucket: netmodel.Bucket(1 << 30), Prefix: 1 << 20, Cloud: 255, Device: 2, Samples: 1 << 30, MeanRTT: 0.001, Clients: 1 << 20},
	}
	var buf bytes.Buffer
	if err := WriteAggJSONL(&buf, cells); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAggBatch(buf.Bytes(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Fatalf("boundary round trip changed cells:\n got %+v\nwant %+v", got, cells)
	}
}
