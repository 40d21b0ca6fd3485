package ingest

import (
	"bufio"
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
// them as JSONL to /v1/aggregates; the server regroups cells into their
// partials (PartialsOf) and gathers each bucket's in a quartet.Aggregate,
// deduplicated by (agent, epoch, seq) and served in PartialID order. A cell
// is everything a partial holds: nothing else is computed at the edge.
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

// PartialsOf regroups decoded cells into the partials they flatten — the
// inverse of AggCellsOf — one per (agent, epoch, seq, bucket) in order of
// first appearance, each partial's cells in body order, whatever order the
// body interleaves them in. A partial's cells normally sit together, and
// its Cells are then a slice of the one array the batch was converted into.
func PartialsOf(cells []AggCell) []*quartet.Partial {
	all := make([]quartet.Cell, len(cells))
	for i, c := range cells {
		all[i] = quartet.Cell{
			Key:     quartet.Key{Prefix: c.Prefix, Cloud: c.Cloud, Device: c.Device},
			Samples: c.Samples, MeanRTT: c.MeanRTT, Clients: c.Clients,
		}
	}
	type partialKey struct {
		b  netmodel.Bucket
		id quartet.PartialID
	}
	var parts []*quartet.Partial
	index := make(map[partialKey]*quartet.Partial)
	for i := 0; i < len(cells); {
		k := partialKey{cells[i].Bucket, cells[i].ID()}
		n := i + 1
		for n < len(cells) && cells[n].Bucket == k.b && cells[n].ID() == k.id {
			n++
		}
		if p := index[k]; p != nil {
			p.Cells = append(p.Cells, all[i:n]...)
		} else {
			p = &quartet.Partial{ID: k.id, Bucket: k.b, Cells: all[i:n:n]}
			index[k] = p
			parts = append(parts, p)
		}
		i = n
	}
	return parts
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

// aggShape is AggCell's canonical line, as WriteAggJSONL writes it.
var aggShape = newShape[AggCell]("aggregate cell", "mean_rtt_ms",
	"agent", "epoch", "seq", "bucket", "prefix", "cloud", "device", "samples", "mean_rtt_ms", "clients")

// DecodeAggBatch decodes one bounded JSONL aggregate-cell batch — the
// request body of a blameitd POST /v1/aggregates — appending the cells to
// buf and returning the extended slice. It is DecodeBatch for the other
// record shape: the same line decoder, the same strict/salvage split.
func DecodeAggBatch(data []byte, buf []AggCell, onBad func(line []byte)) ([]AggCell, error) {
	return aggShape.decodeBatch(data, buf, onBad)
}
