package pipeline

import (
	"errors"
	"math"

	"blameit/internal/ckpt"
	"blameit/internal/core"
	"blameit/internal/probe"
)

// AppendCheckpoint encodes everything a later step or job of the pipeline
// depends on: the expected-RTT learner and the thresholds in force with
// the day they were learned, both predictors, the baseliner, the probe
// budget, the ticket counter, both persistence trackers, the quarantine
// books and the health-interval baselines. What configuration and the
// world rebuild is not encoded, nor are the metrics.
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
	e.Int(p.lastRelearnDay)
	p.Learner.AppendCheckpoint(e)
	p.Thresholds.AppendCheckpoint(e)
	p.Clients.AppendCheckpoint(e)
	p.Durations.AppendCheckpoint(e)
	p.Baseliner.AppendCheckpoint(e)
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
// AppendCheckpoint wrote, as a freshly built pipeline over the same world
// and configuration: the next Step continues where the checkpointed
// pipeline's would have. On an error the pipeline is half restored and
// must be discarded.
func (p *Pipeline) RestoreCheckpoint(d *ckpt.Decoder) error {
	clouds := len(p.World.Clouds)
	p.lastRelearnDay = d.Range(0, math.MaxInt32)
	p.Learner.RestoreCheckpoint(d, clouds)
	p.Thresholds = core.RestoreThresholds(d, p.Table.Keys(), clouds)
	p.Clients.RestoreCheckpoint(d)
	p.Durations.RestoreCheckpoint(d)
	p.Baseliner.RestoreCheckpoint(d)
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
	if err := d.Err(); err != nil {
		return err
	}
	p.window, p.windowPrimed = p.window[:0], false
	p.rebuildPassive()
	return nil
}
