package pipeline

import (
	"errors"
	"fmt"
	"math"

	"blameit/internal/ckpt"
	"blameit/internal/core"
	"blameit/internal/parallel"
	"blameit/internal/probe"
)

// CheckpointSections is how many sections AppendCheckpoint marks: the
// expected-RTT learner, the thresholds, the client predictor, the
// duration predictor, the baseliner, and the rest.
const CheckpointSections = 6

// sectionNames name the sections in their errors.
var sectionNames = [CheckpointSections]string{"learner", "thresholds", "client predictor", "durations", "baseliner", "the rest"}

// restoreOrder is the order the sections are handed to the restoring
// goroutines in, costliest first, so that two of them finish together.
var restoreOrder = [CheckpointSections]int{4, 0, 2, 1, 3, 5}

// AppendCheckpoint encodes everything a later step or job of the pipeline
// depends on: the expected-RTT learner and the thresholds in force with
// the day they were learned, both predictors, the baseliner, the probe
// budget, the ticket counter, both persistence trackers, the quarantine
// books and the health-interval baselines. What configuration and the
// world rebuild is not encoded, nor are the metrics. Each of the
// CheckpointSections parts starts with a Mark, so that they restore
// concurrently; the caller closes the sections.
//
// A checkpoint is cut between jobs: the window must be empty and the
// thresholds learned. A pipeline whose middle grouping is overridden, or
// whose prober is wrapped in a RetryingProber (its breakers are not
// encoded), cannot be checkpointed. Either case fails before anything is
// encoded.
func (p *Pipeline) AppendCheckpoint(e *ckpt.Encoder) error {
	switch {
	case len(p.window) > 0:
		return errors.New("pipeline: checkpoint inside a job window")
	case p.Thresholds == nil:
		return errors.New("pipeline: checkpoint before warm-up")
	case p.keyFunc != nil:
		return errors.New("pipeline: checkpoint under a middle-grouping override")
	}
	if _, ok := p.Prober.(*probe.RetryingProber); ok {
		return errors.New("pipeline: checkpoint over a retrying prober")
	}
	e.Mark()
	p.Learner.AppendCheckpoint(e)
	e.Mark()
	p.Thresholds.AppendCheckpoint(e)
	e.Mark()
	p.Clients.AppendCheckpoint(e)
	e.Mark()
	p.Durations.AppendCheckpoint(e)
	e.Mark()
	p.Baseliner.AppendCheckpoint(e)
	e.Mark()
	e.Int(p.lastRelearnDay)
	p.Budget.AppendCheckpoint(e)
	p.Alerter.AppendCheckpoint(e)
	p.QuartetTracker.AppendCheckpoint(e)
	p.MiddleTracker.AppendCheckpoint(e)
	p.quar.AppendCheckpoint(e)
	for _, v := range []int64{p.srcRetries, p.darkBuckets, p.lastQuarTotal, p.lastSrcRetries, p.lastDark} {
		e.Varint(v)
	}
	return nil
}

// RestoreCheckpoint replaces the pipeline's state with what
// AppendCheckpoint wrote, its sections as ckpt.Sections split them, as a
// freshly built pipeline over the same world and configuration: the next
// Step continues where the checkpointed pipeline's would have. The
// sections touch disjoint state and restore on up to Cfg.Workers
// goroutines, one after another at 1; their errors are joined in section
// order. On an error the pipeline is half restored and must be discarded.
func (p *Pipeline) RestoreCheckpoint(sections [][]byte) error {
	if len(sections) != CheckpointSections {
		return fmt.Errorf("%w: %d pipeline sections, want %d", ckpt.ErrMalformed, len(sections), CheckpointSections)
	}
	clouds := len(p.World.Clouds)
	restore := [CheckpointSections]func(*ckpt.Decoder){
		func(d *ckpt.Decoder) { p.Learner.RestoreCheckpoint(d, clouds) },
		func(d *ckpt.Decoder) { p.Thresholds = core.RestoreThresholds(d, p.Table.Keys(), clouds) },
		p.Clients.RestoreCheckpoint,
		p.Durations.RestoreCheckpoint,
		p.Baseliner.RestoreCheckpoint,
		p.restoreRest,
	}
	var errs [CheckpointSections]error
	parallel.ForEach(CheckpointSections, parallel.Resolve(p.Cfg.Workers), func(i int) {
		sec := restoreOrder[i]
		d := ckpt.NewDecoder(sections[sec])
		restore[sec](d)
		if err := d.Done(); err != nil {
			errs[sec] = fmt.Errorf("%s: %w", sectionNames[sec], err)
		}
	})
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	p.window, p.windowPrimed = p.window[:0], false
	p.rebuildPassive()
	return nil
}

// restoreRest reads the last section: the relearn day, the budget, the
// ticket counter, the trackers, the quarantine and the health counts.
func (p *Pipeline) restoreRest(d *ckpt.Decoder) {
	p.lastRelearnDay = d.Range(0, math.MaxInt32)
	p.Budget.RestoreCheckpoint(d)
	p.Alerter.RestoreCheckpoint(d)
	p.QuartetTracker.RestoreCheckpoint(d)
	p.MiddleTracker.RestoreCheckpoint(d)
	p.quar.RestoreCheckpoint(d)
	for _, v := range []*int64{&p.srcRetries, &p.darkBuckets, &p.lastQuarTotal, &p.lastSrcRetries, &p.lastDark} {
		if *v = d.Varint(); *v < 0 {
			d.Failf("negative health count")
		}
	}
}
