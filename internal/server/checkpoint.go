package server

import (
	"math"

	"blameit/internal/active"
	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
)

// appendState encodes a checkpoint's body: the pipeline's sections, then
// a section of the headers of the reports the log retains, oldest first,
// and the sections' trailer. The reports' bytes stay in the reports
// family.
func appendState(e *ckpt.Encoder, pipe *pipeline.Pipeline, headers []storedReport) error {
	if err := pipe.AppendCheckpoint(e); err != nil {
		return err
	}
	e.Mark()
	e.Len(len(headers))
	for i := range headers {
		h := &headers[i]
		e.Varint(h.seq)
		e.Int(int(h.from))
		e.Int(int(h.to))
		e.Len(h.results)
		e.Len(h.tickets)
		active.AppendVerdicts(e, h.verdicts)
		hl := &h.health
		e.Len(int(hl.Source))
		e.Len(int(hl.Prober))
		for _, n := range []int64{hl.Quarantined, hl.SourceRetries, hl.DarkBuckets, hl.ProbeFailures, hl.ProbeExhausted} {
			e.Varint(n)
		}
		e.Int(hl.OpenCircuits)
	}
	e.EndSections()
	return nil
}

// restoreState reads what appendState wrote into pipe, a pipeline built
// afresh, and returns the headers, in increasing seq order and without
// their bytes.
func restoreState(body []byte, pipe *pipeline.Pipeline) ([]storedReport, error) {
	sections, err := ckpt.Sections(body, pipeline.CheckpointSections+1)
	if err != nil {
		return nil, err
	}
	if err := pipe.RestoreCheckpoint(sections[:pipeline.CheckpointSections]); err != nil {
		return nil, err
	}
	d := ckpt.NewDecoder(sections[pipeline.CheckpointSections])
	headers := make([]storedReport, d.Len(14))
	for i := range headers {
		h := &headers[i]
		if h.seq = d.Varint(); h.seq < 0 || i > 0 && h.seq <= headers[i-1].seq {
			d.Failf("report seq %d out of order", h.seq)
		}
		h.from = netmodel.Bucket(d.Int())
		h.to = netmodel.Bucket(d.Int())
		h.results = d.Bound(math.MaxInt32)
		h.tickets = d.Bound(math.MaxInt32)
		h.verdicts = active.RestoreVerdicts(d)
		hl := &h.health
		hl.Source = pipeline.ComponentHealth(d.Bound(int(pipeline.Dark)))
		hl.Prober = pipeline.ComponentHealth(d.Bound(int(pipeline.Dark)))
		for _, n := range []*int64{&hl.Quarantined, &hl.SourceRetries, &hl.DarkBuckets, &hl.ProbeFailures, &hl.ProbeExhausted} {
			*n = d.Varint()
		}
		hl.OpenCircuits = d.Int()
		if d.Err() != nil {
			break
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return headers, nil
}
