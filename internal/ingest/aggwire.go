package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"blameit/internal/netmodel"
	"blameit/internal/quartet"
	"blameit/internal/trace"
)

// AggCell is one wire record of the edge-aggregate feed: a single quartet
// cell tagged with the identity of the partial that carries it. A fleet
// agent flattens each per-bucket quartet.Partial into its cells and POSTs
// them as JSONL to /v1/aggregates; the server regroups cells by (agent,
// epoch, seq) into runs, deduplicated by that identity, and serves a
// bucket's runs in PartialID order. A cell is everything a partial holds:
// nothing else is computed at the edge.
type AggCell struct {
	Agent   int                  `json:"agent"`
	Epoch   int                  `json:"epoch"`
	Seq     int64                `json:"seq"`
	Bucket  netmodel.Bucket      `json:"bucket"`
	Prefix  netmodel.PrefixID    `json:"prefix"`
	Cloud   netmodel.CloudID     `json:"cloud"`
	Device  netmodel.DeviceClass `json:"device"`
	Samples int                  `json:"samples"`
	MeanRTT float64              `json:"mean_rtt_ms"`
	Clients int                  `json:"clients"`
}

// ID is the dedup identity of the partial this cell belongs to.
func (c AggCell) ID() quartet.PartialID {
	return quartet.PartialID{Agent: c.Agent, Epoch: c.Epoch, Seq: c.Seq}
}

// Observation reconstructs the observation the cell encodes.
func (c AggCell) Observation() trace.Observation {
	return trace.Observation{
		Prefix: c.Prefix, Cloud: c.Cloud, Device: c.Device, Bucket: c.Bucket,
		Samples: c.Samples, MeanRTT: c.MeanRTT, Clients: c.Clients,
	}
}

// AggCellsOf flattens one partial into wire cells, appended to buf.
func AggCellsOf(p *quartet.Partial, buf []AggCell) []AggCell {
	for _, cell := range p.Cells {
		buf = append(buf, AggCell{
			Agent: p.ID.Agent, Epoch: p.ID.Epoch, Seq: p.ID.Seq, Bucket: p.Bucket,
			Prefix: cell.Key.Prefix, Cloud: cell.Key.Cloud, Device: cell.Key.Device,
			Samples: cell.Samples, MeanRTT: cell.MeanRTT, Clients: cell.Clients,
		})
	}
	return buf
}

// WriteAggJSONL writes cells as JSONL in the canonical shape, one record
// per line — the aggregate-feed counterpart of trace.WriteJSONL.
func WriteAggJSONL(w io.Writer, cells []AggCell) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range cells {
		if err := enc.Encode(&cells[i]); err != nil {
			return fmt.Errorf("ingest: encoding aggregate cell %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// The canonical aggregate-cell shape is what WriteAggJSONL (a
// json.Encoder over AggCell) emits: fields in declaration order, no
// inter-token whitespace, plain decimal numbers. As with observation
// batches, the hand-rolled scanner handles exactly that shape and
// anything else falls back to encoding/json, so the accepted inputs are
// unchanged — only the common case gets the alloc-free path.
var (
	aggKeyAgent   = []byte(`{"agent":`)
	aggKeyEpoch   = []byte(`,"epoch":`)
	aggKeySeq     = []byte(`,"seq":`)
	aggKeyBucket  = []byte(`,"bucket":`)
	aggKeyPrefix  = []byte(`,"prefix":`)
	aggKeyCloud   = []byte(`,"cloud":`)
	aggKeyDevice  = []byte(`,"device":`)
	aggKeySamples = []byte(`,"samples":`)
	aggKeyMeanRTT = []byte(`,"mean_rtt_ms":`)
	aggKeyClients = []byte(`,"clients":`)
)

// decodeAggCanonical parses one canonical aggregate-cell line into c,
// reporting whether it matched. On ok=false c is untouched and the
// caller must re-decode the line with encoding/json.
func decodeAggCanonical(line []byte, c *AggCell) bool {
	b, ok := eat(line, aggKeyAgent)
	if !ok {
		return false
	}
	var agent, epoch, seq, bucket, prefix, cloud, device, samples, clients int64
	var mean float64
	if agent, b, ok = parseInt(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeyEpoch); !ok {
		return false
	}
	if epoch, b, ok = parseInt(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeySeq); !ok {
		return false
	}
	if seq, b, ok = parseInt(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeyBucket); !ok {
		return false
	}
	if bucket, b, ok = parseInt(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeyPrefix); !ok {
		return false
	}
	if prefix, b, ok = parseInt(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeyCloud); !ok {
		return false
	}
	if cloud, b, ok = parseInt(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeyDevice); !ok {
		return false
	}
	if device, b, ok = parseInt(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeySamples); !ok {
		return false
	}
	if samples, b, ok = parseInt(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeyMeanRTT); !ok {
		return false
	}
	if mean, b, ok = parseFloat(b); !ok {
		return false
	}
	if b, ok = eat(b, aggKeyClients); !ok {
		return false
	}
	if clients, b, ok = parseInt(b); !ok {
		return false
	}
	if len(b) == 0 || b[0] != '}' || !isBlank(b[1:]) {
		return false
	}
	*c = AggCell{
		Agent: int(agent), Epoch: int(epoch), Seq: seq,
		Bucket: netmodel.Bucket(bucket),
		Prefix: netmodel.PrefixID(prefix), Cloud: netmodel.CloudID(cloud),
		Device:  netmodel.DeviceClass(device),
		Samples: int(samples), MeanRTT: mean, Clients: int(clients),
	}
	return true
}

// DecodeAggBatch decodes one bounded JSONL aggregate-cell batch — the
// request body of a blameitd POST /v1/aggregates — appending the cells
// to buf and returning the extended slice. Decoding mirrors DecodeBatch:
// canonical lines take the alloc-free scanner, anything else falls back
// to encoding/json, blank lines are skipped, and onBad selects the
// strict (nil: positioned error, reject the batch) or salvage (divert
// the bad line, keep going) failure mode.
func DecodeAggBatch(data []byte, buf []AggCell, onBad func(line []byte)) ([]AggCell, error) {
	offset := 0
	rec := 0
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl < 0 {
			line, data = data, nil
		} else {
			line, data = data[:nl+1], data[nl+1:]
		}
		lineStart := offset
		offset += len(line)
		if isBlank(line) {
			continue
		}
		var c AggCell
		if !decodeAggCanonical(line, &c) {
			c = AggCell{}
			if err := json.Unmarshal(line, &c); err != nil {
				if onBad == nil {
					return buf, fmt.Errorf("ingest: decoding aggregate cell %d (byte offset %d): %w", rec, lineStart, err)
				}
				onBad(line)
				continue
			}
		}
		rec++
		buf = append(buf, c)
	}
	return buf, nil
}
