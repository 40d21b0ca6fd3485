package experiments

import (
	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/quartet"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// Env bundles the world, routing, fault schedule and simulator that one
// experiment runs against.
type Env struct {
	World   *topology.World
	Table   *bgp.Table
	Sched   *faults.Schedule
	Sim     *sim.Simulator
	Seed    int64
	Horizon netmodel.Bucket
	// Workers is the environment's fan-out setting (see EnvConfig.Workers).
	Workers int
}

// EnvConfig parameterizes environment construction.
type EnvConfig struct {
	Scale topology.Scale
	Seed  int64
	Days  int
	Churn bgp.ChurnConfig
	// Faults is the injected schedule; nil means fault-free.
	Faults []faults.Fault
	// Workers caps the fan-out of observation generation and, via
	// NewPipeline, the Algorithm 1 job (0 = all cores, 1 = sequential).
	// Results are identical at any setting; only wall time changes.
	Workers int
}

// NewEnv builds a deterministic experiment environment.
func NewEnv(cfg EnvConfig) *Env {
	if cfg.Days < 1 {
		cfg.Days = 1
	}
	w := topology.Generate(cfg.Scale, cfg.Seed)
	horizon := netmodel.Bucket(cfg.Days * netmodel.BucketsPerDay)
	tbl := bgp.NewTable(w, cfg.Churn, horizon, cfg.Seed+1)
	scfg := sim.DefaultConfig(cfg.Seed + 2)
	scfg.Workers = cfg.Workers
	s := sim.New(w, tbl, faults.NewSchedule(cfg.Faults), scfg)
	return &Env{World: w, Table: tbl, Sched: s.Sched, Sim: s, Seed: cfg.Seed, Horizon: horizon, Workers: cfg.Workers}
}

// Env builds the environment registered experiments run against: the
// params' world under default BGP churn, over the given days and schedule.
func (p Params) Env(days int, fs []faults.Fault) *Env {
	return NewEnv(EnvConfig{Scale: p.Scale, Seed: p.Seed, Days: days, Churn: bgp.DefaultChurnConfig(), Faults: fs})
}

// RandomFaultEnv is Env under the default randomized fault schedule.
func (p Params) RandomFaultEnv(days int) *Env {
	w := topology.Generate(p.Scale, p.Seed)
	horizon := netmodel.Bucket(days * netmodel.BucketsPerDay)
	return p.Env(days, faults.Generate(w, faults.DefaultGenerateConfig(), horizon, p.Seed+11).Faults)
}

// QuartetsAt classifies the observations of one bucket.
func (e *Env) QuartetsAt(b netmodel.Bucket, buf []trace.Observation) ([]quartet.Quartet, []trace.Observation) {
	buf = e.Sim.ObservationsAt(b, buf[:0])
	qs := make([]quartet.Quartet, len(buf))
	for i, o := range buf {
		qs[i] = quartet.Classify(o, e.World.TargetFor(o.Prefix, o.Cloud))
	}
	return qs, buf
}

// NewPipeline assembles a pipeline over the environment's simulator. A
// zero cfg.Workers inherits the environment's fan-out setting.
func (e *Env) NewPipeline(cfg pipeline.Config) *pipeline.Pipeline {
	if cfg.Workers == 0 {
		cfg.Workers = e.Workers
	}
	return pipeline.NewSim(e.Sim, cfg)
}

// IssueRecord grades one active-phase verdict against the simulator's
// ground truth. It feeds Figs. 11-13 and the probe-overhead comparison.
type IssueRecord struct {
	Bucket netmodel.Bucket
	Key    netmodel.MiddleKey
	// PathKey is the true BGP path of the probed representative (equal to
	// Key under BlameIt's grouping; coarser groupings diverge).
	PathKey netmodel.MiddleKey
	// Truth is the dominant-inflation AS at the probed client (ground
	// truth from the simulator).
	TruthAS      netmodel.ASN
	TruthSegment netmodel.Segment
	// Verdict is the active phase's output.
	Probed    bool
	OK        bool
	VerdictAS netmodel.ASN
	// Prioritization inputs.
	EstClientTime    float64
	OracleClientTime float64
	ObservedClients  int
	// TruthFault is the schedule index of the underlying fault (-1 when
	// the badness is organic).
	TruthFault int
}

// Correct reports whether the verdict named the ground-truth AS.
func (r IssueRecord) Correct() bool {
	return r.Probed && r.OK && r.VerdictAS == r.TruthAS
}

// MiddleEvalConfig drives the shared middle-issue evaluation harness.
type MiddleEvalConfig struct {
	Pipeline pipeline.Config
	// WarmupDays learn expected RTTs before anything else happens.
	WarmupDays int
	// From/To delimit the evaluated buckets (faults should lie inside).
	From, To netmodel.Bucket
	// KeyFunc optionally overrides the passive phase's middle grouping.
	KeyFunc core.MiddleKeyFunc
}

// MiddleEvalResult aggregates the harness outputs.
type MiddleEvalResult struct {
	Records []IssueRecord
	Pipe    *pipeline.Pipeline
}

// Accuracy returns the fraction of probed genuine middle issues (ground
// truth says the dominant inflation sits in the middle segment) whose
// verdict named the right AS. Failed comparisons count as wrong — they
// leave the operator without a localization. Spurious middle verdicts on
// issues whose true cause is the client or cloud segment are a passive-
// phase concern and are excluded here, matching the paper's Fig. 13 scope.
func (r *MiddleEvalResult) Accuracy() float64 {
	probed, correct := 0, 0
	for _, rec := range r.Records {
		if !rec.Probed || rec.TruthSegment != netmodel.SegMiddle {
			continue
		}
		probed++
		if rec.Correct() {
			correct++
		}
	}
	if probed == 0 {
		return 0
	}
	return float64(correct) / float64(probed)
}

// RunMiddleEval runs the pipeline over the evaluation window, grading
// every active-phase verdict against simulator ground truth.
func (e *Env) RunMiddleEval(cfg MiddleEvalConfig) *MiddleEvalResult {
	p := e.NewPipeline(cfg.Pipeline)
	if cfg.KeyFunc != nil {
		p.SetMiddleKeyFunc(cfg.KeyFunc)
	}
	warmupEnd := netmodel.Bucket(cfg.WarmupDays * netmodel.BucketsPerDay)
	p.Warmup(0, warmupEnd)
	res := &MiddleEvalResult{Pipe: p}
	start := warmupEnd
	if cfg.From > start {
		start = cfg.From
	}
	// Drive the pre-window period (baseline establishment) quietly.
	if warmupEnd < cfg.From {
		p.Run(warmupEnd, cfg.From, nil)
	}
	p.Run(start, cfg.To, func(rep *pipeline.Report) {
		for _, v := range rep.Verdicts {
			rec := IssueRecord{
				Bucket:          rep.To,
				Key:             v.Issue.Key,
				PathKey:         v.Issue.Path.Key(),
				Probed:          v.Probed,
				OK:              v.OK,
				VerdictAS:       v.AS,
				EstClientTime:   v.Issue.ClientTime,
				ObservedClients: v.Issue.ObservedClients,
				TruthFault:      -1,
			}
			// Ground truth at the probed client.
			target := v.Issue.Prefixes[0]
			inf := e.Sim.DominantInflation(target, v.Issue.Cloud, rep.To)
			rec.TruthAS = inf.AS
			rec.TruthSegment = inf.Segment
			// Oracle client-time: the real remaining duration of the
			// underlying fault times the clients observed on the path now.
			if f, ok := e.activeMiddleFault(target, v.Issue.Cloud, rep.To); ok {
				rec.TruthFault = f.ID
				rec.OracleClientTime = float64(f.End()-rep.To) * float64(v.Issue.ObservedClients)
			}
			res.Records = append(res.Records, rec)
		}
	})
	return res
}

// activeMiddleFault finds the middle fault affecting (prefix, cloud) at a
// bucket, if any.
func (e *Env) activeMiddleFault(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) (faults.Fault, bool) {
	path := e.Table.PathAtForPrefix(c, p, b)
	for _, f := range e.Sched.Faults {
		if f.Kind != faults.MiddleASFault || !f.ActiveAt(b) {
			continue
		}
		if f.ScopeCloud != faults.NoCloud && f.ScopeCloud != c {
			continue
		}
		for _, m := range path.Middle {
			if m == f.AS {
				return f, true
			}
		}
	}
	return faults.Fault{}, false
}
