package pipeline

import (
	"errors"
	"fmt"
	"math"

	"blameit/internal/active"
	"blameit/internal/alerting"
	"blameit/internal/ckpt"
	"blameit/internal/core"
	"blameit/internal/ingest"
	"blameit/internal/parallel"
	"blameit/internal/predict"
	"blameit/internal/probe"
	"blameit/internal/quartet"
)

// CheckpointSections is how many sections AppendCheckpoint marks: the
// expected-RTT learner, the thresholds, the client predictor, the
// duration predictor, the baseliner, and the rest.
const CheckpointSections = 6

// sectionNames name the sections in their errors.
var sectionNames = [CheckpointSections]string{"learner", "thresholds", "client predictor", "durations", "baseliner", "the rest"}

// decodeOrder is the order the sections are handed to the decoding
// goroutines in, costliest first, so that two of them finish together.
var decodeOrder = [CheckpointSections]int{4, 0, 2, 1, 3, 5}

// AppendCheckpoint encodes everything a later step or job of the pipeline
// depends on: the expected-RTT learner and the thresholds in force with
// the day they were learned, both predictors, the baseliner, the probe
// budget, the ticket counter, both persistence trackers, the quarantine
// books and the health-interval baselines. What configuration and the
// world rebuild is not encoded, nor are the metrics. Each of the
// CheckpointSections parts starts with a Mark, so that they decode
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

// Decoded is a checkpoint's pipeline state, decoded from its sections
// with nothing of the world: what must fit the world — the key space, the
// clouds, the BGP event log — as read, unchecked, and the rest into
// detached instances of its types.
type Decoded struct {
	learner    core.LearnerState
	thresholds core.ThresholdsState
	clients    predict.ClientState
	durations  *predict.DurationPredictor
	baseliner  probe.BaselinerState

	lastRelearnDay int
	budget         *probe.Budget
	alerter        *alerting.Alerter
	quartets       *quartet.Tracker
	middles        *active.Tracker
	quar           *ingest.Quarantine
	health         [5]int64 // srcRetries, darkBuckets and the last* counts
}

// DecodeCheckpoint decodes what AppendCheckpoint wrote, its sections as
// ckpt.Sections split them, needing no world, so that it runs while the
// world is built. The sections decode into disjoint state, on up to
// workers goroutines, one after another at 1; their errors are joined in
// section order.
func DecodeCheckpoint(sections [][]byte, workers int) (*Decoded, error) {
	if len(sections) != CheckpointSections {
		return nil, fmt.Errorf("%w: %d pipeline sections, want %d", ckpt.ErrMalformed, len(sections), CheckpointSections)
	}
	dec := &Decoded{
		durations: predict.NewDurationPredictor(1),
		budget:    probe.NewBudget(0),
		alerter:   alerting.NewAlerter(0),
		quartets:  quartet.NewTracker(),
		middles:   active.NewTracker(nil),
		quar:      ingest.NewQuarantine(0, 0),
	}
	decode := [CheckpointSections]func(*ckpt.Decoder){
		func(d *ckpt.Decoder) { dec.learner = core.DecodeLearner(d) },
		func(d *ckpt.Decoder) { dec.thresholds = core.DecodeThresholds(d) },
		func(d *ckpt.Decoder) { dec.clients = predict.DecodeClients(d) },
		dec.durations.RestoreCheckpoint,
		func(d *ckpt.Decoder) { dec.baseliner = probe.DecodeBaseliner(d) },
		dec.decodeRest,
	}
	var errs [CheckpointSections]error
	parallel.ForEach(CheckpointSections, parallel.Resolve(workers), func(i int) {
		sec := decodeOrder[i]
		d := ckpt.NewDecoder(sections[sec])
		decode[sec](d)
		if err := d.Done(); err != nil {
			errs[sec] = fmt.Errorf("%s: %w", sectionNames[sec], err)
		}
	})
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	return dec, nil
}

// decodeRest reads the last section: the relearn day, the budget, the
// ticket counter, the trackers, the quarantine and the health counts.
func (dec *Decoded) decodeRest(d *ckpt.Decoder) {
	dec.lastRelearnDay = d.Range(0, math.MaxInt32)
	dec.budget.RestoreCheckpoint(d)
	dec.alerter.RestoreCheckpoint(d)
	dec.quartets.RestoreCheckpoint(d)
	dec.middles.RestoreCheckpoint(d)
	dec.quar.RestoreCheckpoint(d)
	for i := range dec.health {
		if dec.health[i] = d.Varint(); dec.health[i] < 0 {
			d.Failf("negative health count")
		}
	}
}

// AdoptCheckpoint replaces the state of p, a pipeline freshly built over
// the world and configuration of the one checkpointed, with dec's, once
// dec fits p's world: the learner, the thresholds and the client
// predictor its key space and clouds, the baseliner its key space and its
// BGP event log. The next Step continues where the checkpointed
// pipeline's would have. On an error the pipeline is half adopted and must
// be discarded.
func (p *Pipeline) AdoptCheckpoint(dec *Decoded) error {
	clouds := len(p.World.Clouds)
	th, err := core.AdoptThresholds(dec.thresholds, p.Table.Keys(), clouds)
	errs := [CheckpointSections]error{
		p.Learner.Adopt(dec.learner, clouds),
		err,
		p.Clients.Adopt(dec.clients),
		nil,
		p.Baseliner.Adopt(dec.baseliner),
	}
	for sec, err := range errs {
		if err != nil {
			errs[sec] = fmt.Errorf("%s: %w", sectionNames[sec], err)
		}
	}
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	p.Thresholds = th
	p.Durations.Adopt(dec.durations)
	p.lastRelearnDay = dec.lastRelearnDay
	p.Budget.Adopt(dec.budget)
	p.Alerter.Adopt(dec.alerter)
	p.QuartetTracker.Adopt(dec.quartets)
	p.MiddleTracker.Adopt(dec.middles)
	p.quar.Adopt(dec.quar)
	p.srcRetries, p.darkBuckets, p.lastQuarTotal, p.lastSrcRetries, p.lastDark = dec.health[0], dec.health[1], dec.health[2], dec.health[3], dec.health[4]
	p.window, p.windowPrimed = p.window[:0], false
	p.rebuildPassive()
	return nil
}
