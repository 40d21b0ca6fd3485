// Example quickstart: the minimal end-to-end BlameIt flow.
//
// It builds a small synthetic world, injects one middle-segment fault,
// learns expected RTTs over a warmup day, and runs the two-phase
// localization — Algorithm 1 on the passive RTT stream, then a budgeted
// on-demand traceroute compared against background baselines — printing
// the verdicts as they appear.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"sort"

	"blameit/internal/bgp"
	"blameit/internal/core"
	"blameit/internal/faults"
	"blameit/internal/netmodel"
	"blameit/internal/pipeline"
	"blameit/internal/sim"
	"blameit/internal/topology"
)

func main() {
	// 1. A deterministic synthetic world: cloud edges, transit fabric,
	// client prefixes, routes.
	world := topology.Generate(topology.SmallScale(), 7)
	st := world.Stats()
	fmt.Printf("world: %d cloud locations, %d ASes, %d client /24s\n", st.Clouds, st.ASes, st.Prefix24s)

	// 2. One fault: a European transit AS degrades by 80 ms for two hours,
	// starting at 10:00 on day 2 (day 0 is the learning day, day 1
	// establishes traceroute baselines).
	faultyAS := world.Transits[netmodel.RegionEurope][0]
	fault := faults.Fault{
		Kind: faults.MiddleASFault, AS: faultyAS, ScopeCloud: faults.NoCloud,
		Start:    2*netmodel.BucketsPerDay + 10*netmodel.BucketsPerHour,
		Duration: 2 * netmodel.BucketsPerHour,
		ExtraMS:  80,
	}
	fmt.Printf("injected: +%.0fms in %s for %d minutes\n\n",
		fault.ExtraMS, world.ASes[faultyAS].Name, fault.Duration.Minutes())

	// 3. Routing (with realistic churn), the latency simulator, and the
	// assembled pipeline.
	horizon := netmodel.Bucket(3 * netmodel.BucketsPerDay)
	table := bgp.NewTable(world, bgp.DefaultChurnConfig(), horizon, 8)
	simulator := sim.New(world, table, faults.NewSchedule([]faults.Fault{fault}), sim.DefaultConfig(9))
	p := pipeline.NewSim(simulator, pipeline.DefaultConfig())

	// 4. Learn each location's and middle segment's expected RTT (the
	// production system uses a trailing 14-day median).
	p.Warmup(0, netmodel.BucketsPerDay)

	// 5. Run up to the fault (establishing traceroute baselines), then
	// through the fault window, and report what BlameIt concludes about
	// the affected paths.
	p.Run(netmodel.BucketsPerDay, fault.Start, nil)
	blames := make(map[core.Blame]int)
	culprits := make(map[netmodel.ASN]int)
	p.Run(fault.Start, fault.End(), func(rep *pipeline.Report) {
		for _, r := range rep.Results {
			if onPath(r.Path, faultyAS) {
				blames[r.Blame]++
			}
		}
		for _, v := range rep.Verdicts {
			if v.Probed && v.OK && onPath(v.Issue.Path, faultyAS) {
				culprits[v.AS]++
			}
		}
	})

	fmt.Println("passive verdicts for quartets on affected paths during the fault:")
	for _, cat := range core.Categories() {
		fmt.Printf("  %-13s %d\n", cat.String(), blames[cat])
	}
	fmt.Println("\nactive-phase culprit votes for the affected issues:")
	var asns []netmodel.ASN
	for as := range culprits {
		asns = append(asns, as)
	}
	// Most votes first; tied counts in ASN order, so the listing does not
	// follow map iteration.
	sort.Slice(asns, func(i, j int) bool {
		if culprits[asns[i]] != culprits[asns[j]] {
			return culprits[asns[i]] > culprits[asns[j]]
		}
		return asns[i] < asns[j]
	})
	for _, as := range asns {
		marker := ""
		if as == faultyAS {
			marker = "  <= the injected fault"
		}
		fmt.Printf("  AS%-6d %3d%s\n", as, culprits[as], marker)
	}
}

// onPath reports whether a path's middle segment traverses the AS.
func onPath(path netmodel.Path, as netmodel.ASN) bool {
	for _, m := range path.Middle {
		if m == as {
			return true
		}
	}
	return false
}
