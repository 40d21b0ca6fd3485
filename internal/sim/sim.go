// Package sim is the time-stepped wide-area latency simulator that stands
// in for Azure's production telemetry. Given a topology, a routing table,
// and a fault schedule, it produces per-quartet RTT observations (the
// passive TCP-handshake stream of the paper), answers per-AS latency
// ground-truth queries (the basis for traceroute simulation and accuracy
// grading), and models diurnal client-side congestion with the night-peaked
// shape reported in §2.2.
//
// All stochastic values are derived from a hash of (seed, prefix, cloud,
// bucket), so any observation can be regenerated at random access without
// replaying the stream. That same property makes generation embarrassingly
// parallel: ObservationsAt shards the prefix space across a worker pool
// and merges the per-shard buffers in prefix order, so output is
// byte-identical to the sequential path at any worker count (see Config.
// Workers).
package sim

import (
	"fmt"
	"math"
	"sync"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/parallel"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

// Config holds the simulator's dynamic-behaviour knobs.
type Config struct {
	Seed int64
	// NoiseSigma is the log-scale standard deviation of per-sample RTT
	// noise; the noise on a quartet mean shrinks with sqrt(sample count).
	NoiseSigma float64
	// MixSigma is the log-scale deviation of per-quartet client-mix
	// variation: which clients inside a /24 happen to connect shifts the
	// quartet mean and does NOT average away with more samples. This keeps
	// coherent few-millisecond shifts (drift, mild congestion) from
	// flipping an entire location's quartets past their medians at once.
	MixSigma float64
	// SamplesPerClient is the mean number of TCP connections (and hence RTT
	// samples) one active client contributes per 5-minute bucket.
	SamplesPerClient float64
	// DiurnalMaxMS bounds per-AS evening congestion amplitude.
	DiurnalMaxMS float64
	// DriftMS is the amplitude of the slow per-AS latency drift (a smooth
	// day-scale random walk). Stale traceroute baselines misestimate an
	// AS's normal contribution by up to roughly this much, which is what
	// makes background-probe freshness matter (Fig. 13).
	DriftMS float64
	// Workers caps the goroutines used to generate one bucket's
	// observations and samples. Non-positive means runtime.GOMAXPROCS(0);
	// 1 forces the sequential path. Because every stochastic value is
	// hash-derived and per-shard buffers are merged in prefix order, the
	// output stream is identical at any worker count.
	Workers int
	// Metrics receives the simulator's generation accounting (observation
	// and sample counts, shard fan-out). Nil falls back to the process
	// default registry, which is itself nil — i.e. uninstrumented — unless
	// metrics.EnableDefault was called.
	Metrics *metrics.Registry
}

// DefaultConfig returns the calibrated simulator settings. Workers is left
// at 0, i.e. runtime.GOMAXPROCS(0).
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, NoiseSigma: 0.10, MixSigma: 0.07, SamplesPerClient: 4.0, DiurnalMaxMS: 18, DriftMS: 2}
}

// Validate rejects configurations with no meaningful interpretation:
// negative or NaN magnitudes and a negative worker count. (Workers == 0 is
// the documented all-cores sentinel, not a mistake, so it stays valid.)
// New panics on an invalid config; callers assembling configs from
// external input (flags) should Validate first and report the error.
func (c Config) Validate() error {
	bad := func(x float64) bool { return math.IsNaN(x) || x < 0 }
	switch {
	case bad(c.NoiseSigma):
		return fmt.Errorf("sim: NoiseSigma %v must be >= 0", c.NoiseSigma)
	case bad(c.MixSigma):
		return fmt.Errorf("sim: MixSigma %v must be >= 0", c.MixSigma)
	case bad(c.SamplesPerClient):
		return fmt.Errorf("sim: SamplesPerClient %v must be >= 0", c.SamplesPerClient)
	case bad(c.DiurnalMaxMS):
		return fmt.Errorf("sim: DiurnalMaxMS %v must be >= 0", c.DiurnalMaxMS)
	case bad(c.DriftMS):
		return fmt.Errorf("sim: DriftMS %v must be >= 0", c.DriftMS)
	case c.Workers < 0:
		return fmt.Errorf("sim: Workers %d must be >= 0 (0 = all cores)", c.Workers)
	}
	return nil
}

// Observation aliases the shared passive-measurement record; the simulator
// produces the same record shape the production collector emits.
type Observation = trace.Observation

// Simulator generates observations and answers ground-truth queries.
//
// All query methods (MeanRTT, Contributions, Observe, ObservationsAt, ...)
// are safe for concurrent use: the per-AS maps are built once in New and
// only read afterwards, and the routing table and fault schedule are
// likewise read-only at query time. The only mutable state is the scratch
// buffers of the sharded generation path, which are handed out under a
// mutex.
type Simulator struct {
	World  *topology.World
	Routes *bgp.Table
	Sched  *faults.Schedule
	cfg    Config

	diurnalAmp    map[netmodel.ASN]float64 // evening congestion amplitude per eyeball AS
	weekendFactor map[netmodel.ASN]float64 // how much of the diurnal shape survives weekends
	eveningPeak   map[netmodel.ASN]float64 // peak hour of the AS's congestion

	// Reusable per-shard buffers for the parallel generation path.
	obsScratch scratchPool

	// Metric handles (nil-safe no-ops when uninstrumented).
	mObservations *metrics.Counter
	mRunsParallel *metrics.Counter
	mRunsSeq      *metrics.Counter
	mFanoutMax    *metrics.Gauge
}

// New creates a simulator. The routing table and fault schedule may cover
// any horizon; queries beyond the table's horizon use its last state.
func New(w *topology.World, routes *bgp.Table, sched *faults.Schedule, cfg Config) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Simulator{
		World:         w,
		Routes:        routes,
		Sched:         sched,
		cfg:           cfg,
		diurnalAmp:    make(map[netmodel.ASN]float64),
		weekendFactor: make(map[netmodel.ASN]float64),
		eveningPeak:   make(map[netmodel.ASN]float64),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	s.mObservations = reg.Counter("sim.observations.generated")
	// Registered at zero only because the golden pipeline fixture pins the
	// registry's counter set; no generator counts samples.
	reg.Counter("sim.samples.generated")
	s.mRunsParallel = reg.Counter("sim.generation.runs.parallel")
	s.mRunsSeq = reg.Counter("sim.generation.runs.sequential")
	s.mFanoutMax = reg.Gauge("sim.generation.fanout.max")
	for _, reg := range netmodel.AllRegions() {
		for _, asn := range w.Eyeballs[reg] {
			// Only a subset of ISPs congest in the evening: well-provisioned
			// networks stay flat, most see a light bump, and a minority of
			// under-provisioned home ISPs swing hard. Keeping the heavy
			// swings to a minority is what lets Algorithm 1's Insight-2
			// hold — evening badness is a client-segment phenomenon, not a
			// location-wide shift.
			h := mix(uint64(cfg.Seed), uint64(asn), 0xd1)
			u := u01(h)
			h1b := mix(uint64(cfg.Seed), uint64(asn), 0xd4)
			switch {
			case u < 0.4:
				s.diurnalAmp[asn] = 0
			case u < 0.7:
				s.diurnalAmp[asn] = 1 + 3*u01(h1b)
			default:
				s.diurnalAmp[asn] = 5 + (cfg.DiurnalMaxMS-5)*u01(h1b)
			}
			h2 := mix(uint64(cfg.Seed), uint64(asn), 0xd2)
			s.weekendFactor[asn] = 0.3 + 0.7*u01(h2)
			h3 := mix(uint64(cfg.Seed), uint64(asn), 0xd3)
			s.eveningPeak[asn] = 19 + 4*u01(h3) // peak between 19:00 and 23:00
		}
	}
	return s
}

// Seeded builds the seeded world every entry point shares — blameit,
// blameitd and blameit-tracegen — from one seed: the topology at seed,
// the fault workload at seed+1, BGP churn at seed+2 and the simulator at
// seed+3, with faults and churn generated over [0, horizon). A producer
// and a daemon given the same arguments regenerate the same history.
// workload is "random" (faults.Generate's default mix) or "none".
func Seeded(scale topology.Scale, seed int64, workload string, horizon netmodel.Bucket, workers int, reg *metrics.Registry) (*Simulator, error) {
	cfg := DefaultConfig(seed + 3)
	cfg.Workers = workers
	cfg.Metrics = reg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workload != "random" && workload != "none" {
		return nil, fmt.Errorf("unknown workload %q (random|none)", workload)
	}
	w := topology.Generate(scale, seed)
	sched := faults.NewSchedule(nil)
	if workload == "random" {
		sched = faults.Generate(w, faults.DefaultGenerateConfig(), horizon, seed+1)
	}
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, seed+2)
	return New(w, tbl, sched, cfg), nil
}

// Config returns the simulator configuration.
func (s *Simulator) Config() Config { return s.cfg }

// SetWorkers adjusts the generation fan-out after construction (benchmarks
// and the CLI -workers flag). It only changes how work is scheduled, never
// what is generated. Not safe to call concurrently with generation.
func (s *Simulator) SetWorkers(n int) { s.cfg.Workers = n }

// mix is a splitmix64-style hash over its inputs, used to derive
// deterministic per-entity randomness.
func mix(vals ...uint64) uint64 {
	var h uint64 = 0x9E3779B97F4A7C15
	for _, v := range vals {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// u01 maps a hash to a float in [0,1).
func u01(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// gauss maps two hashes to a standard normal draw (Box-Muller).
func gauss(h1, h2 uint64) float64 {
	u1 := u01(h1)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u01(h2))
}

// nightFactor is the diurnal congestion shape: a bump peaking at the AS's
// evening peak hour, wrapping around midnight.
func nightFactor(hour float64, peak float64) float64 {
	best := 0.0
	for _, k := range [...]float64{-24, 0, 24} {
		d := hour - peak + k
		v := math.Exp(-d * d / (2 * 3.5 * 3.5))
		if v > best {
			best = v
		}
	}
	return best
}

// drift returns the slow latency drift of an AS (or cloud location, via a
// distinct salt) at a bucket: day-boundary values drawn in [-DriftMS,
// +DriftMS], linearly interpolated within the day.
func (s *Simulator) drift(id uint64, salt uint64, b netmodel.Bucket) float64 {
	if s.cfg.DriftMS == 0 {
		return 0
	}
	day := b.Day()
	at := func(d int) float64 {
		return (2*u01(mix(uint64(s.cfg.Seed), id, salt, uint64(d))) - 1) * s.cfg.DriftMS
	}
	frac := float64(b.OfDay()) / float64(netmodel.BucketsPerDay)
	return at(day)*(1-frac) + at(day+1)*frac
}

// DiurnalClientExtra returns the client-segment congestion (ms) a prefix
// experiences at a bucket: the organic, non-fault badness that the paper
// attributes to evening home-ISP load.
func (s *Simulator) DiurnalClientExtra(p netmodel.PrefixID, b netmodel.Bucket) float64 {
	pref := s.World.Prefixes[p]
	amp := s.diurnalAmp[pref.AS]
	if b.IsWeekend() {
		amp *= s.weekendFactor[pref.AS]
	}
	hour := float64(b.OfDay()) / float64(netmodel.BucketsPerHour)
	nf := nightFactor(hour, s.eveningPeak[pref.AS])
	// Per-prefix susceptibility: some /24s ride congested segments harder.
	sus := 0.5 + 1.0*u01(mix(uint64(s.cfg.Seed), uint64(p), 0xc0))
	return amp * nf * sus
}

// pathFor resolves the route for (prefix, cloud) at a bucket, honouring
// traffic-shift faults which pin the initial route of the shift target.
func (s *Simulator) pathFor(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) netmodel.Path {
	return s.Routes.PathAtForPrefix(c, p, b)
}

// Contributions returns the ground-truth per-AS latency contributions (ms)
// of the connection from prefix p to cloud c at bucket b, ordered cloud →
// middle → client, including fault and diurnal effects.
func (s *Simulator) Contributions(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) []topology.ASContribution {
	path := s.pathFor(p, c, b)
	out := s.World.BaseContributions(path, p)
	pref := s.World.Prefixes[p]
	// Cloud segment: faults plus slow drift. The location-wide drift is
	// kept small — coherent shifts across every client of a location are
	// rare in practice, and the per-AS drifts below already decorrelate
	// stale baselines.
	out[0].MS += s.Sched.CloudExtra(c, b) + 0.4*s.drift(uint64(c), 0xdc, b)
	// Middle segments: faults plus slow drift.
	for i := 1; i < len(out)-1; i++ {
		out[i].MS += s.Sched.MiddleExtra(out[i].AS, c, b) + s.drift(uint64(out[i].AS), 0xda, b)
	}
	// Traffic-shift congestion lands on the first middle AS of the shifted
	// path.
	if target, ok := s.Sched.ShiftTarget(p, b); ok && target == c && len(out) > 2 {
		out[1].MS += s.shiftExtra(p, b)
	}
	// Client segment: faults plus organic diurnal congestion.
	last := len(out) - 1
	out[last].MS += s.Sched.ClientExtra(p, pref.AS, b)
	out[last].MS += s.DiurnalClientExtra(p, b)
	// Negative drift must never drive a segment below a physical floor.
	for i := range out {
		if out[i].MS < 0.2 {
			out[i].MS = 0.2
		}
	}
	return out
}

// shiftExtra returns the congestion injected by an active traffic-shift
// fault covering prefix p.
func (s *Simulator) shiftExtra(p netmodel.PrefixID, b netmodel.Bucket) float64 {
	for _, f := range s.Sched.Faults {
		if f.Kind == faults.TrafficShift && f.ActiveAt(b) {
			for _, sp := range f.ShiftPrefixes {
				if sp == p {
					return f.ExtraMS
				}
			}
		}
	}
	return 0
}

// ReversePathFor returns the client→cloud route of the prefix's covering
// BGP prefix toward cloud c (in forward orientation; see
// topology.ReversePath).
func (s *Simulator) ReversePathFor(p netmodel.PrefixID, c netmodel.CloudID) netmodel.Path {
	return s.World.ReversePath(c, s.World.Prefixes[p].BGPPrefix)
}

// ReverseExtra returns the total latency injected by reverse-only faults
// on the client→cloud route of (prefix, cloud) at a bucket. The TCP
// handshake crosses both directions, so this rides on top of the forward
// contributions in MeanRTT.
func (s *Simulator) ReverseExtra(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) float64 {
	var sum float64
	for _, as := range s.ReversePathFor(p, c).Middle {
		sum += s.Sched.MiddleExtraReverse(as, c, b)
	}
	return sum
}

// ReverseFaultAS returns the reverse-path AS carrying the largest
// reverse-only inflation for (prefix, cloud) at a bucket, if any.
func (s *Simulator) ReverseFaultAS(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) (netmodel.ASN, float64, bool) {
	var bestAS netmodel.ASN
	var best float64
	for _, as := range s.ReversePathFor(p, c).Middle {
		if ms := s.Sched.MiddleExtraReverse(as, c, b); ms > best {
			best = ms
			bestAS = as
		}
	}
	return bestAS, best, best > 0
}

// MeanRTT returns the noise-free expected RTT of (prefix, cloud) at a
// bucket: the sum of forward ground-truth contributions plus any
// reverse-direction congestion the round trip crosses.
func (s *Simulator) MeanRTT(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) float64 {
	var sum float64
	for _, con := range s.Contributions(p, c, b) {
		sum += con.MS
	}
	return sum + s.ReverseExtra(p, c, b)
}

// attachmentsAt returns the cloud attachments of a prefix at a bucket,
// honouring traffic-shift faults (a shifted prefix connects only to the
// shift target).
func (s *Simulator) attachmentsAt(p netmodel.PrefixID, b netmodel.Bucket) []topology.CloudAttachment {
	if target, ok := s.Sched.ShiftTarget(p, b); ok {
		return []topology.CloudAttachment{{Cloud: target, Weight: 1}}
	}
	return s.World.Attachments(p)
}

// volumeFactor models diurnal connection volume: consumer traffic peaks in
// the evening alongside congestion.
func (s *Simulator) volumeFactor(p netmodel.PrefixID, b netmodel.Bucket) float64 {
	pref := s.World.Prefixes[p]
	hour := float64(b.OfDay()) / float64(netmodel.BucketsPerHour)
	return 0.55 + 0.75*nightFactor(hour, s.eveningPeak[pref.AS])
}

// minParallelPrefixes is the prefix count below which the sharded path is
// not worth its goroutine overhead.
const minParallelPrefixes = 64

// scratchPool caches one set of per-shard buffers between sharded runs,
// checked out under mu so concurrent callers never share scratch; a caller
// that misses the cache simply allocates a fresh set.
type scratchPool struct {
	mu   sync.Mutex
	bufs [][]Observation
}

func (p *scratchPool) checkout(n int) [][]Observation {
	p.mu.Lock()
	bufs := p.bufs
	p.bufs = nil
	p.mu.Unlock()
	if len(bufs) < n {
		bufs = append(bufs, make([][]Observation, n-len(bufs))...)
	}
	return bufs[:n]
}

func (p *scratchPool) checkin(bufs [][]Observation) {
	p.mu.Lock()
	p.bufs = bufs
	p.mu.Unlock()
}

// sharded appends gen's output over the index space [0, n) to buf and
// returns it with the fan-out used (0 = the sequential walk). When workers
// resolves to more than one and n is worth it, [0, n) is split into
// contiguous shards generated concurrently into pool's scratch and merged in
// shard order, so the result is byte-identical to gen(0, n, buf).
func sharded(workers, n int, pool *scratchPool, buf []Observation, gen func(lo, hi int, buf []Observation) []Observation) ([]Observation, int) {
	workers = parallel.Resolve(workers)
	if workers <= 1 || n < minParallelPrefixes {
		return gen(0, n, buf), 0
	}
	shards := parallel.Shards(n, workers)
	bufs := pool.checkout(len(shards))
	parallel.ForEach(len(shards), workers, func(i int) {
		bufs[i] = gen(shards[i].Lo, shards[i].Hi, bufs[i][:0])
	})
	for _, sb := range bufs {
		buf = append(buf, sb...)
	}
	pool.checkin(bufs)
	return buf, len(shards)
}

// ObservationsAt generates the quartet-level observations of one bucket,
// appending to buf (which may be nil) and returning the extended slice.
// Quartets with zero samples are omitted.
//
// When cfg.Workers resolves to more than one, the prefix space is split
// into contiguous shards generated concurrently; the per-shard buffers are
// merged in shard (= prefix) order, so the result is byte-identical to the
// sequential walk.
func (s *Simulator) ObservationsAt(b netmodel.Bucket, buf []Observation) []Observation {
	before := len(buf)
	buf, fanout := sharded(s.cfg.Workers, len(s.World.Prefixes), &s.obsScratch, buf,
		func(lo, hi int, buf []Observation) []Observation { return s.observationsRange(b, lo, hi, buf) })
	if fanout == 0 {
		s.mRunsSeq.Inc()
	} else {
		s.mRunsParallel.Inc()
		s.mFanoutMax.SetMax(int64(fanout))
	}
	s.mObservations.Add(int64(len(buf) - before))
	return buf
}

// ObservationsRange generates the observations of prefixes [lo, hi) at a
// bucket, appending to buf. This is the per-shard walk ObservationsAt
// parallelizes over, exported for edge agents that own a contiguous slice
// of the prefix space: an agent fleet whose slices partition [0, len
// (World.Prefixes)) generates, collectively and in ascending-slice order,
// exactly the stream ObservationsAt emits.
func (s *Simulator) ObservationsRange(b netmodel.Bucket, lo, hi int, buf []Observation) []Observation {
	if lo < 0 {
		lo = 0
	}
	if n := len(s.World.Prefixes); hi > n {
		hi = n
	}
	if hi <= lo {
		return buf
	}
	return s.observationsRange(b, lo, hi, buf)
}

// observationsRange generates the observations of prefixes [lo, hi) — one
// shard of the bucket's stream.
func (s *Simulator) observationsRange(b netmodel.Bucket, lo, hi int, buf []Observation) []Observation {
	for i := lo; i < hi; i++ {
		pref := s.World.Prefixes[i]
		for _, att := range s.attachmentsAt(pref.ID, b) {
			o, ok := s.Observe(pref.ID, att.Cloud, att.Weight, b)
			if ok {
				buf = append(buf, o)
			}
		}
	}
	return buf
}

// Observe generates the observation of a single (prefix, cloud) quartet at
// a bucket with the given traffic weight. It reports false when no clients
// connected in the bucket.
func (s *Simulator) Observe(p netmodel.PrefixID, c netmodel.CloudID, weight float64, b netmodel.Bucket) (Observation, bool) {
	pref := s.World.Prefixes[p]
	seed := uint64(s.cfg.Seed)
	h1 := mix(seed, uint64(p), uint64(c), uint64(b), 1)
	h2 := mix(seed, uint64(p), uint64(c), uint64(b), 2)
	h3 := mix(seed, uint64(p), uint64(c), uint64(b), 3)

	expClients := float64(pref.ActiveClients) * weight * s.volumeFactor(p, b)
	clients := int(expClients + gauss(h1, h2)*math.Sqrt(expClients)*0.5 + 0.5)
	if clients <= 0 {
		return Observation{}, false
	}
	samples := int(float64(clients)*s.cfg.SamplesPerClient + 0.5)
	if samples < 1 {
		samples = 1
	}
	mean := s.MeanRTT(p, c, b)
	// Mean-of-n noise: per-sample sigma shrinks with sqrt(n); the client
	// mix term does not.
	h4 := mix(seed, uint64(p), uint64(c), uint64(b), 4)
	noise := math.Exp(gauss(h2, h3)*s.cfg.NoiseSigma/math.Sqrt(float64(samples)) +
		gauss(h3, h4)*s.cfg.MixSigma)
	return Observation{
		Prefix:  p,
		Cloud:   c,
		Device:  pref.Device,
		Bucket:  b,
		Samples: samples,
		MeanRTT: mean * noise,
		Clients: clients,
	}, true
}

// Inflation describes the ground-truth dominant cause of an RTT increase.
type Inflation struct {
	AS       netmodel.ASN
	Segment  netmodel.Segment
	ExtraMS  float64 // the dominant AS's inflation over its static base
	TotalMS  float64 // total inflation over the static base RTT
	Dominant bool    // true when the top AS carries >= 80% of the inflation
}

// DominantInflation identifies which AS contributes the largest latency
// increase over the static base for (prefix, cloud) at a bucket. This is
// the answer key used to grade BlameIt's localization. The 80% dominance
// threshold mirrors the paper's Insight-1 measurement.
func (s *Simulator) DominantInflation(p netmodel.PrefixID, c netmodel.CloudID, b netmodel.Bucket) Inflation {
	now := s.Contributions(p, c, b)
	path := s.pathFor(p, c, b)
	base := s.World.BaseContributions(path, p)
	var inf Inflation
	for i := range now {
		d := now[i].MS - base[i].MS
		inf.TotalMS += d
		if d > inf.ExtraMS {
			inf.ExtraMS = d
			inf.AS = now[i].AS
			inf.Segment = now[i].Segment
		}
	}
	// Reverse-direction congestion counts as middle inflation attributed
	// to the reverse-path AS carrying it.
	if as, ms, ok := s.ReverseFaultAS(p, c, b); ok {
		inf.TotalMS += ms
		if ms > inf.ExtraMS {
			inf.ExtraMS = ms
			inf.AS = as
			inf.Segment = netmodel.SegMiddle
		}
	}
	if inf.TotalMS > 0 && inf.ExtraMS/inf.TotalMS >= 0.8 {
		inf.Dominant = true
	}
	return inf
}
