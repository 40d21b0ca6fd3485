//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"

	"blameit/internal/bgp"
	"blameit/internal/faults"
	"blameit/internal/fleet"
	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/probe"
	"blameit/internal/sim"
	"blameit/internal/topology"
	"blameit/internal/trace"
)

const (
	// worldDays is the daemon's -days and the horizon faults and routing
	// churn are generated over. It is the same for every workload, so
	// they all see one world; a workload replays only a prefix of it.
	worldDays = 4
	// fleetAgents is the number of edge agents behind the fleet feed.
	fleetAgents = 16

	dayBuckets = netmodel.BucketsPerDay
	warmupDays = 1
)

// world is the simulated internet the trace is drawn from and the
// in-process reference pipeline probes. Its seeds derive from one seed
// exactly as cmd/blameitd and cmd/blameit-tracegen derive them, so a
// daemon started with the same -seed and -days regenerates the same
// topology, faults and routing.
type world struct {
	w   *topology.World
	tbl *bgp.Table
	sim *sim.Simulator
}

func newWorld(seed int64) (*world, error) {
	w := topology.Generate(topology.SmallScale(), seed)
	horizon := netmodel.Bucket(worldDays * dayBuckets)
	fs := faults.Generate(w, faults.DefaultGenerateConfig(), horizon, seed+1).Faults
	tbl := bgp.NewTable(w, bgp.DefaultChurnConfig(), horizon, seed+2)
	scfg := sim.DefaultConfig(seed + 3)
	if err := scfg.Validate(); err != nil {
		return nil, err
	}
	return &world{w: w, tbl: tbl, sim: sim.New(w, tbl, faults.NewSchedule(fs), scfg)}, nil
}

// pipelineConfig is the pipeline configuration cmd/blameitd assembles
// from its default flags.
func pipelineConfig(workers int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// deps wires a pipeline (or an in-process server) over this world with a
// fresh probe engine, as the daemon does.
func (wd *world) deps(cfg pipeline.Config) pipeline.Deps {
	return pipeline.Deps{World: wd.w, Table: wd.tbl, Prober: probe.NewEngine(wd.sim, cfg.ProbeNoiseMS)}
}

// feed is one encoded trace: the request bodies of consecutive buckets,
// back to back, with a per-bucket offset index. The timed section only
// reads these bytes. They are kept in memory, not in a file: the write
// of a few hundred MB is still being flushed when the first pass starts,
// and on a small VM that disk traffic inflates the daemon's CPU time.
type feed struct {
	data []byte
	off  []int // body of bucket b is data[off[b]:off[b+1]]
	recs []int // records (raw) or cells (fleet) in bucket b
}

// body returns bucket b's request body.
func (fd *feed) body(b int) []byte { return fd.data[fd.off[b]:fd.off[b+1]] }

// records sums the record counts of buckets [from, to).
func (fd *feed) records(from, to int) int64 {
	var n int64
	for _, r := range fd.recs[from:to] {
		n += int64(r)
	}
	return n
}

// sha256 is the hex digest of the whole encoded trace.
func (fd *feed) sha256() string {
	sum := sha256.Sum256(fd.data)
	return hex.EncodeToString(sum[:])
}

// encodeFeed encodes buckets [0, n), one request body per bucket; fill
// appends bucket b's body and returns its record count.
func encodeFeed(n int, fill func(b int, body *bytes.Buffer) (int, error)) (*feed, error) {
	fd := &feed{off: []int{0}}
	var body bytes.Buffer
	for b := 0; b < n; b++ {
		recs, err := fill(b, &body)
		if err != nil {
			return nil, err
		}
		fd.off = append(fd.off, body.Len())
		fd.recs = append(fd.recs, recs)
	}
	fd.data = body.Bytes()
	return fd, nil
}

// encodeRaw writes the world's observation stream as POST /v1/ingest
// bodies, one bucket per body.
func encodeRaw(wd *world, n int) (*feed, error) {
	var obs []trace.Observation
	return encodeFeed(n, func(b int, body *bytes.Buffer) (int, error) {
		obs = wd.sim.ObservationsAt(netmodel.Bucket(b), obs[:0])
		return len(obs), trace.WriteJSONL(body, obs)
	})
}

// encodeFleet writes the same stream as POST /v1/aggregates bodies: every
// agent's partial for the bucket, whole, in one body.
func encodeFleet(wd *world, n int) (*feed, error) {
	fl := fleet.New(wd.sim, fleetAgents)
	var cells []ingest.AggCell
	return encodeFeed(n, func(b int, body *bytes.Buffer) (int, error) {
		total := 0
		for _, ag := range fl.Agents {
			cells = ingest.AggCellsOf(ag.Collect(netmodel.Bucket(b)), cells[:0])
			if err := ingest.WriteAggJSONL(body, cells); err != nil {
				return 0, err
			}
			total += len(cells)
		}
		return total, nil
	})
}
