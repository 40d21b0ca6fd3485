// Package chaos provides fault-injecting wrappers for the data plane:
// a Source that corrupts, delays, duplicates, and drops passive
// observations (and fails reads transiently), and a Prober whose
// traceroutes time out or come back truncated. All injection is driven
// by a seeded deterministic hash of the record's identity, so a chaos
// run is exactly reproducible — same seed, same faults — and two runs
// over the same world differ only where injection says they should.
//
// The wrappers inject faults; they never absorb them. The consuming
// side — the ingestion quarantine, the retrying prober, degraded-mode
// localization — is what the injected faults exercise, and every
// injected fault is counted here so tests can demand the two sides'
// books balance.
package chaos

import (
	"context"
	"fmt"
	"math"
	"sort"

	"blameit/internal/ingest"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
	"blameit/internal/probe"
	"blameit/internal/trace"
)

// Config sets the per-fault injection rates. The zero value injects
// nothing; all probabilities are per record (or per probe attempt).
type Config struct {
	// Seed namespaces every injection decision. Two sources (or a source
	// and a prober) sharing a seed make independent decisions because each
	// fault class hashes under its own tag.
	Seed int64

	// DropBatchProb drops a whole bucket's batch of observations.
	DropBatchProb float64
	// TransientErrProb fails a bucket's first read with a retryable
	// (ingest.Transient) error; the retry succeeds, so SourceRetries >= 1
	// absorbs it and SourceRetries == 0 turns it into a dark bucket.
	TransientErrProb float64
	// CorruptProb mutates a record into one of the corruption kinds the
	// quarantine must catch: NaN / +Inf / negative RTT, negative sample or
	// client counts, or an unknown prefix.
	CorruptProb float64
	// LateProb holds a record back and redelivers it 1..LateMaxDelay
	// buckets later (out of bucket — the quarantine rejects it as late).
	LateProb float64
	// LateMaxDelay bounds the redelivery delay in buckets (minimum 1).
	LateMaxDelay netmodel.Bucket
	// LateBurstProb makes a whole bucket bursty: LateBurstFrac of its
	// records are held back, modeling a collector falling behind.
	LateBurstProb float64
	// LateBurstFrac is the fraction of a bursty bucket's records held.
	LateBurstFrac float64
	// DuplicateProb redelivers a clean record a second time in the same
	// batch (the quarantine deduplicates it).
	DuplicateProb float64

	// AgentChurnProb restarts a fleet agent before it delivers a bucket's
	// partial aggregate: the partial is lost, the agent's epoch bumps and
	// its sequence counter restarts (exercising epoch-scoped dedup). Only
	// the fleet delivery layer reads it; the observation Source ignores
	// it, so raw-path chaos runs are untouched.
	AgentChurnProb float64

	// ProbeFailProb fails one traceroute attempt (per attempt, so a
	// retrying caller usually recovers).
	ProbeFailProb float64
	// TruncateProb cuts a successful traceroute short, keeping a strict
	// prefix of its hops — no error, just an unusable measurement.
	TruncateProb float64
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.DropBatchProb > 0 || c.TransientErrProb > 0 || c.CorruptProb > 0 ||
		c.LateProb > 0 || c.LateBurstProb > 0 || c.DuplicateProb > 0 ||
		c.AgentChurnProb > 0 || c.ProbeFailProb > 0 || c.TruncateProb > 0
}

// Validate rejects rates outside [0, 1] and a nonsensical delay bound.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("chaos: %s %v must be in [0, 1]", name, v)
		}
		return nil
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"DropBatchProb", c.DropBatchProb},
		{"TransientErrProb", c.TransientErrProb},
		{"CorruptProb", c.CorruptProb},
		{"LateProb", c.LateProb},
		{"LateBurstProb", c.LateBurstProb},
		{"LateBurstFrac", c.LateBurstFrac},
		{"DuplicateProb", c.DuplicateProb},
		{"AgentChurnProb", c.AgentChurnProb},
		{"ProbeFailProb", c.ProbeFailProb},
		{"TruncateProb", c.TruncateProb},
	} {
		if err := check(pr.name, pr.v); err != nil {
			return err
		}
	}
	if c.LateMaxDelay < 0 {
		return fmt.Errorf("chaos: LateMaxDelay %d must be >= 0", c.LateMaxDelay)
	}
	return nil
}

// Light is a gentle profile: faults are visible in the metrics but rare
// enough that accuracy is essentially unaffected.
func Light(seed int64) Config {
	return Config{
		Seed:             seed,
		DropBatchProb:    0.002,
		TransientErrProb: 0.01,
		CorruptProb:      0.01,
		LateProb:         0.005,
		LateMaxDelay:     6,
		LateBurstProb:    0.01,
		LateBurstFrac:    0.25,
		DuplicateProb:    0.005,
		AgentChurnProb:   0.002,
		ProbeFailProb:    0.05,
		TruncateProb:     0.01,
	}
}

// Heavy is the hostile profile the headline chaos test runs under: one
// probe in five fails, one record in twenty is corrupt, and late bursts
// hold back half a bucket.
func Heavy(seed int64) Config {
	return Config{
		Seed:             seed,
		DropBatchProb:    0.01,
		TransientErrProb: 0.05,
		CorruptProb:      0.05,
		LateProb:         0.01,
		LateMaxDelay:     12,
		LateBurstProb:    0.05,
		LateBurstFrac:    0.5,
		DuplicateProb:    0.02,
		AgentChurnProb:   0.01,
		ProbeFailProb:    0.20,
		TruncateProb:     0.05,
	}
}

// hash64 mixes the seed, a fault-class tag, and the decision's identity
// into a uniform 64-bit value (FNV-1a over the parts, finished with a
// splitmix64 round).
func hash64(seed int64, tag string, parts ...int64) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(seed))
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	for _, p := range parts {
		mix(uint64(p))
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// roll converts a hash into a uniform probability in [0, 1).
func roll(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Decider is the seeded deterministic dice every injector in this package
// rolls, exported for fault layers built outside it (the fleet delivery
// fabric). Each fault class hashes under its own tag, so deciders sharing
// a seed make independent decisions per class.
type Decider struct {
	Seed int64
}

// Hash mixes the seed, a fault-class tag, and the decision's identity
// into a uniform 64-bit value.
func (d Decider) Hash(tag string, parts ...int64) uint64 {
	return hash64(d.Seed, tag, parts...)
}

// Roll returns the decision's uniform draw in [0, 1).
func (d Decider) Roll(tag string, parts ...int64) float64 {
	return roll(hash64(d.Seed, tag, parts...))
}

// SourceStats counts what the chaos source injected, cumulatively.
type SourceStats struct {
	// Read is the number of records read from the base source.
	Read int64
	// DroppedBatches / DroppedRecords count whole-bucket batch drops.
	DroppedBatches, DroppedRecords int64
	// TransientErrs is the number of injected retryable read failures.
	TransientErrs int64
	// Corrupted is the number of records mutated into invalid ones.
	Corrupted int64
	// Held is the number of records delayed for late delivery;
	// LateDelivered of them have been redelivered so far.
	Held, LateDelivered int64
	// Duplicated is the number of extra copies emitted.
	Duplicated int64
}

// Source wraps an ObservationSource with fault injection. Not safe for
// concurrent use (the pipeline reads buckets serially).
type Source struct {
	base        ingest.ObservationSource
	cfg         Config
	numPrefixes netmodel.PrefixID

	held        map[netmodel.Bucket][]trace.Observation
	erredBucket netmodel.Bucket
	erredPrimed bool
	dups        []trace.Observation
	stats       SourceStats

	reg                                *metrics.Registry
	mDropped, mTransient, mCorrupted   *metrics.Counter
	mHeld, mLateDelivered, mDuplicated *metrics.Counter
}

// NewSource wraps base. numPrefixes is the world's prefix count, used to
// fabricate out-of-range prefixes for the corruption kind the quarantine
// must bounds-check.
func NewSource(base ingest.ObservationSource, cfg Config, numPrefixes netmodel.PrefixID) *Source {
	if cfg.LateMaxDelay < 1 {
		cfg.LateMaxDelay = 1
	}
	return &Source{base: base, cfg: cfg, numPrefixes: numPrefixes, held: make(map[netmodel.Bucket][]trace.Observation)}
}

// SetMetrics mirrors injection counts into chaos.source.* counters,
// registered lazily on first injection so fault-free snapshots are
// unchanged.
func (s *Source) SetMetrics(reg *metrics.Registry) { s.reg = reg }

func (s *Source) count(handle **metrics.Counter, name string) {
	if s.reg == nil {
		return
	}
	if *handle == nil {
		*handle = s.reg.Counter(name)
	}
	(*handle).Inc()
}

// Stats returns the cumulative injection counts.
func (s *Source) Stats() SourceStats { return s.stats }

// PendingLate is the number of held records not yet redelivered (still
// in flight when the run ended).
func (s *Source) PendingLate() int {
	n := 0
	for _, batch := range s.held {
		n += len(batch)
	}
	return n
}

// recordHash identifies one observation for a fault-class decision.
func (s *Source) recordHash(tag string, o trace.Observation) uint64 {
	return hash64(s.cfg.Seed, tag, int64(o.Prefix), int64(o.Cloud), int64(o.Device), int64(o.Bucket))
}

// corruptObs mutates a record into one of six invalid shapes, all of
// which the ingestion quarantine must catch.
func (s *Source) corruptObs(o trace.Observation, h uint64) trace.Observation {
	switch h % 6 {
	case 0:
		o.MeanRTT = math.NaN()
	case 1:
		o.MeanRTT = math.Inf(1)
	case 2:
		o.MeanRTT = -o.MeanRTT - 1
	case 3:
		o.Samples = -o.Samples - 1
	case 4:
		o.Clients = -o.Clients - 1
	default:
		o.Prefix = s.numPrefixes + netmodel.PrefixID(h%1024)
	}
	return o
}

// ObservationsAt reads bucket b through the fault injector: the batch
// may fail transiently (once per bucket, before the base read), be
// dropped outright, or have records corrupted, held for late delivery,
// or duplicated. Held records from earlier buckets are flushed into the
// result in delivery-bucket order.
func (s *Source) ObservationsAt(ctx context.Context, b netmodel.Bucket, buf []trace.Observation) ([]trace.Observation, error) {
	if s.cfg.TransientErrProb > 0 && !(s.erredPrimed && s.erredBucket == b) &&
		roll(hash64(s.cfg.Seed, "transient", int64(b))) < s.cfg.TransientErrProb {
		s.erredBucket, s.erredPrimed = b, true
		s.stats.TransientErrs++
		s.count(&s.mTransient, "chaos.source.transient_errs")
		return buf[:0], ingest.Transient(fmt.Errorf("chaos: injected transient read failure at bucket %d", b))
	}

	out, err := s.base.ObservationsAt(ctx, b, buf)
	if err != nil {
		return out, err
	}
	s.stats.Read += int64(len(out))

	if s.cfg.DropBatchProb > 0 && roll(hash64(s.cfg.Seed, "drop", int64(b))) < s.cfg.DropBatchProb {
		s.stats.DroppedBatches++
		s.stats.DroppedRecords += int64(len(out))
		s.count(&s.mDropped, "chaos.source.dropped_batches")
		out = out[:0]
	} else {
		burst := s.cfg.LateBurstProb > 0 && roll(hash64(s.cfg.Seed, "burst", int64(b))) < s.cfg.LateBurstProb
		s.dups = s.dups[:0]
		w := 0
		for _, o := range out {
			lateH := s.recordHash("late", o)
			late := roll(lateH) < s.cfg.LateProb
			if burst && roll(s.recordHash("burstpick", o)) < s.cfg.LateBurstFrac {
				late = true
			}
			if late {
				delay := 1 + netmodel.Bucket(lateH%uint64(s.cfg.LateMaxDelay))
				s.held[b+delay] = append(s.held[b+delay], o)
				s.stats.Held++
				s.count(&s.mHeld, "chaos.source.late_held")
				continue
			}
			if corruptH := s.recordHash("corrupt", o); roll(corruptH) < s.cfg.CorruptProb {
				out[w] = s.corruptObs(o, corruptH)
				w++
				s.stats.Corrupted++
				s.count(&s.mCorrupted, "chaos.source.corrupted")
				continue
			}
			out[w] = o
			w++
			if roll(s.recordHash("dup", o)) < s.cfg.DuplicateProb {
				s.dups = append(s.dups, o)
				s.stats.Duplicated++
				s.count(&s.mDuplicated, "chaos.source.duplicated")
			}
		}
		out = append(out[:w], s.dups...)
	}

	// Redeliver everything whose delivery bucket has arrived, in
	// delivery-bucket order for determinism.
	if len(s.held) > 0 {
		var due []netmodel.Bucket
		for k := range s.held {
			if k <= b {
				due = append(due, k)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		for _, k := range due {
			for range s.held[k] {
				s.count(&s.mLateDelivered, "chaos.source.late_delivered")
			}
			s.stats.LateDelivered += int64(len(s.held[k]))
			out = append(out, s.held[k]...)
			delete(s.held, k)
		}
	}
	return out, nil
}

// ProberStats counts what the chaos prober injected, cumulatively.
type ProberStats struct {
	// Probes is the number of attempts that reached the injector.
	Probes int64
	// FailuresInjected is the number of attempts failed outright.
	FailuresInjected int64
	// Truncated is the number of successful probes cut short.
	Truncated int64
}

type probeKey struct {
	c       netmodel.CloudID
	p       netmodel.PrefixID
	b       netmodel.Bucket
	purpose probe.Purpose
}

// Prober wraps a Prober with per-attempt failure and truncation
// injection. It implements probe.ErrProber, so pipeline.New hardens it
// behind a RetryingProber automatically. Not safe for concurrent use.
type Prober struct {
	base probe.Prober
	cfg  Config

	// attempts distinguishes retries of the same probe so each attempt
	// rolls its own failure; cleared when the bucket advances.
	attempts map[probeKey]int
	lastB    netmodel.Bucket
	primed   bool
	stats    ProberStats

	reg                 *metrics.Registry
	mFailed, mTruncated *metrics.Counter
}

// NewProber wraps base with fault injection.
func NewProber(base probe.Prober, cfg Config) *Prober {
	return &Prober{base: base, cfg: cfg, attempts: make(map[probeKey]int)}
}

// SetMetrics mirrors injection counts into chaos.probe.* counters
// (lazily registered). It is forwarded to the base prober when that
// supports it.
func (cp *Prober) SetMetrics(reg *metrics.Registry) {
	cp.reg = reg
	if m, ok := cp.base.(interface{ SetMetrics(*metrics.Registry) }); ok {
		m.SetMetrics(reg)
	}
}

func (cp *Prober) count(handle **metrics.Counter, name string) {
	if cp.reg == nil {
		return
	}
	if *handle == nil {
		*handle = cp.reg.Counter(name)
	}
	(*handle).Inc()
}

// Stats returns the cumulative injection counts.
func (cp *Prober) Stats() ProberStats { return cp.stats }

// Counters delegates purpose accounting to the base prober.
func (cp *Prober) Counters() *probe.Counters { return cp.base.Counters() }

// Traceroute is the infallible interface: injected failures surface as
// hopless traceroutes (which the baseliner refuses to store).
func (cp *Prober) Traceroute(c netmodel.CloudID, p netmodel.PrefixID, b netmodel.Bucket, purpose probe.Purpose) probe.Traceroute {
	tr, _ := cp.TracerouteErr(context.Background(), c, p, b, purpose)
	return tr
}

// TracerouteErr runs one probe attempt through the injector: it may fail
// outright (an error, no hops) or succeed truncated (a strict prefix of
// the real hops — structurally valid, unusable for comparison).
func (cp *Prober) TracerouteErr(ctx context.Context, c netmodel.CloudID, p netmodel.PrefixID, b netmodel.Bucket, purpose probe.Purpose) (probe.Traceroute, error) {
	if err := ctx.Err(); err != nil {
		return probe.Traceroute{}, err
	}
	if !cp.primed || b != cp.lastB {
		clear(cp.attempts)
		cp.lastB, cp.primed = b, true
	}
	k := probeKey{c, p, b, purpose}
	attempt := cp.attempts[k]
	cp.attempts[k] = attempt + 1
	cp.stats.Probes++

	if cp.cfg.ProbeFailProb > 0 &&
		roll(hash64(cp.cfg.Seed, "probefail", int64(c), int64(p), int64(b), int64(purpose), int64(attempt))) < cp.cfg.ProbeFailProb {
		cp.stats.FailuresInjected++
		cp.count(&cp.mFailed, "chaos.probe.failures")
		return probe.Traceroute{}, fmt.Errorf("chaos: injected probe failure (cloud %d, prefix %d, bucket %d, attempt %d)", c, p, b, attempt)
	}
	tr := cp.base.Traceroute(c, p, b, purpose)
	if cp.cfg.TruncateProb > 0 && len(tr.Hops) >= 2 {
		if h := hash64(cp.cfg.Seed, "trunc", int64(c), int64(p), int64(b), int64(purpose), int64(attempt)); roll(h) < cp.cfg.TruncateProb {
			tr.Hops = tr.Hops[:1+int(h%uint64(len(tr.Hops)-1))]
			cp.stats.Truncated++
			cp.count(&cp.mTruncated, "chaos.probe.truncated")
		}
	}
	return tr, nil
}
