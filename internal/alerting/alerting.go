// Package alerting turns BlameIt's verdicts into impact-prioritized,
// auto-routed tickets for network operators, as described in §6.1: issues
// are ranked by business impact, the top few are ticketed automatically,
// and the coarse segmentation routes each ticket to the right team.
package alerting

import (
	"fmt"
	"math"
	"sort"

	"blameit/internal/active"
	"blameit/internal/ckpt"
	"blameit/internal/core"
	"blameit/internal/metrics"
	"blameit/internal/netmodel"
)

// Team identifies which operations team a ticket is routed to.
type Team string

const (
	// TeamCloudInfra investigates server and intra-cloud network issues.
	TeamCloudInfra Team = "cloud-infrastructure"
	// TeamPeering investigates transit and peering-relationship issues.
	TeamPeering Team = "peering-networking"
	// TeamClientOutreach handles client-ISP issues (informational; the
	// cloud typically cannot fix them).
	TeamClientOutreach Team = "client-outreach"
)

// Ticket is one prioritized investigation request.
type Ticket struct {
	ID       int
	Bucket   netmodel.Bucket
	Category core.Blame
	Team     Team
	// Impact is the number of affected clients behind the grouped quartets.
	Impact int
	// Entity describes the blamed object (cloud location, BGP path, or
	// client AS).
	Cloud     netmodel.CloudID
	MiddleKey netmodel.MiddleKey
	ClientAS  netmodel.ASN
	// CulpritAS is the active phase's AS-level localization, when known.
	CulpritAS netmodel.ASN
	Summary   string
}

// Alerter groups verdicts into tickets and keeps only the top-N by impact
// per window.
type Alerter struct {
	TopN   int
	nextID int

	mEmitted   *metrics.Counter
	mTruncated *metrics.Counter
}

// NewAlerter creates an alerter that emits at most topN tickets per window
// (0 = unlimited).
func NewAlerter(topN int) *Alerter {
	return &Alerter{TopN: topN}
}

// SetMetrics mirrors ticket emission into a metrics registry
// (alerting.tickets.emitted / alerting.tickets.truncated counters, the
// latter counting tickets dropped by the TopN cut).
func (a *Alerter) SetMetrics(reg *metrics.Registry) {
	a.mEmitted = reg.Counter("alerting.tickets.emitted")
	a.mTruncated = reg.Counter("alerting.tickets.truncated")
}

// issueGroup accumulates one ticket-worthy issue.
type issueGroup struct {
	category core.Blame
	cloud    netmodel.CloudID
	mk       netmodel.MiddleKey
	clientAS netmodel.ASN
	impact   int
}

// Generate builds tickets from one window's passive results and active
// verdicts. Cloud issues group by location, middle issues by BGP path,
// client issues by client AS; ambiguous/insufficient verdicts are not
// ticketed.
func (a *Alerter) Generate(b netmodel.Bucket, results []core.Result, verdicts []active.Verdict) []Ticket {
	groups := make(map[string]*issueGroup)
	order := make([]string, 0)
	add := func(key string, g issueGroup) {
		ig, ok := groups[key]
		if !ok {
			fresh := g
			fresh.impact = 0
			ig = &fresh
			groups[key] = ig
			order = append(order, key)
		}
		ig.impact += g.impact
	}
	for _, r := range results {
		clients := r.Q.Obs.Clients
		switch r.Blame {
		case core.BlameCloud:
			add(fmt.Sprintf("c|%d", r.Q.Obs.Cloud), issueGroup{category: core.BlameCloud, cloud: r.Q.Obs.Cloud, impact: clients})
		case core.BlameMiddle:
			mk := r.Path.Key()
			add("m|"+string(mk), issueGroup{category: core.BlameMiddle, cloud: r.Q.Obs.Cloud, mk: mk, impact: clients})
		case core.BlameClient:
			add(fmt.Sprintf("a|%d", r.BlamedAS), issueGroup{category: core.BlameClient, clientAS: r.BlamedAS, impact: clients})
		}
	}
	// Attach active-phase culprits to middle groups.
	culprits := make(map[netmodel.MiddleKey]netmodel.ASN)
	for _, v := range verdicts {
		if v.Probed && v.OK {
			culprits[v.Issue.Key] = v.AS
		}
	}

	tickets := make([]Ticket, 0, len(groups))
	for _, key := range order {
		g := groups[key]
		t := Ticket{
			Bucket:    b,
			Category:  g.category,
			Impact:    g.impact,
			Cloud:     g.cloud,
			MiddleKey: g.mk,
			ClientAS:  g.clientAS,
		}
		switch g.category {
		case core.BlameCloud:
			t.Team = TeamCloudInfra
			t.Summary = fmt.Sprintf("cloud location %d degraded (%d clients affected)", g.cloud, g.impact)
		case core.BlameMiddle:
			t.Team = TeamPeering
			t.CulpritAS = culprits[g.mk]
			if t.CulpritAS != 0 {
				t.Summary = fmt.Sprintf("middle segment %s degraded, culprit AS%d (%d clients affected)", g.mk, t.CulpritAS, g.impact)
			} else {
				t.Summary = fmt.Sprintf("middle segment %s degraded (%d clients affected)", g.mk, g.impact)
			}
		case core.BlameClient:
			t.Team = TeamClientOutreach
			t.Summary = fmt.Sprintf("client AS%d degraded (%d clients affected)", g.clientAS, g.impact)
		}
		tickets = append(tickets, t)
	}
	sort.Slice(tickets, func(i, j int) bool {
		if tickets[i].Impact != tickets[j].Impact {
			return tickets[i].Impact > tickets[j].Impact
		}
		return tickets[i].Summary < tickets[j].Summary
	})
	if a.TopN > 0 && len(tickets) > a.TopN {
		a.mTruncated.Add(int64(len(tickets) - a.TopN))
		tickets = tickets[:a.TopN]
	}
	for i := range tickets {
		a.nextID++
		tickets[i].ID = a.nextID
	}
	a.mEmitted.Add(int64(len(tickets)))
	return tickets
}

// AppendCheckpoint encodes the ticket counter; TopN is configuration.
func (a *Alerter) AppendCheckpoint(e *ckpt.Encoder) { e.Int(a.nextID) }

// RestoreCheckpoint restores the ticket counter.
func (a *Alerter) RestoreCheckpoint(d *ckpt.Decoder) { a.nextID = d.Range(0, math.MaxInt32) }
