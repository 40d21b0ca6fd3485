package pipeline

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"blameit/internal/active"
	"blameit/internal/alerting"
	"blameit/internal/core"
	"blameit/internal/netmodel"
	"blameit/internal/quartet"
	"blameit/internal/trace"
)

// TestCanonicalJSONMatchesEncodingJSON holds the appending encoder to
// json.Marshal of canonicalReport, byte for byte, over seeded random
// reports: nil and empty slices at every level, Degraded both ways, floats
// at encoding/json's format edges (1e-6, 1e21, subnormals, -0, the e-07
// exponents it shortens) beside random bit patterns, and strings with the
// characters it escapes (<, >, &, U+2028, U+2029, control bytes, invalid
// UTF-8). A NaN or infinity anywhere must fail both. AppendVerdictsJSON is
// held to json.Marshal of the verdicts alike.
func TestCanonicalJSONMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	edges := []float64{
		0, math.Copysign(0, -1), 1, -2.5, 40.5, 1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-7, 9.999e-10,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.7976931348623157e308, 5e-324, 2.2250738585072014e-308,
		123456789.123, 0.1, 1e-300, 3e+100,
	}
	float := func() float64 {
		if r.Intn(3) == 0 {
			return edges[r.Intn(len(edges))]
		}
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	strs := []string{
		"", "plain", "<", ">", "&", "a<b>&c", "\u2028", "\u2029", "x\u2028y\u2029z", "\xff", "ok\xfe\xffok",
		`quote " and \ backslash`, "\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "h\u00e9llo w\u00f6rld", "\u65e5\u672c", "\U0001F600",
		"\xe2\x80", "/slash/",
	}
	str := func() string {
		if r.Intn(4) == 0 {
			b := make([]byte, r.Intn(12))
			r.Read(b)
			return string(b)
		}
		return strs[r.Intn(len(strs))]
	}
	ints := func() int { return r.Intn(1<<20) - 1<<10 }
	// sliceOf returns nil, an empty slice or n elements, a third of the
	// time each.
	sliceOf := func(n int) int {
		switch r.Intn(3) {
		case 0:
			return -1
		case 1:
			return 0
		}
		return 1 + r.Intn(n)
	}
	path := func() netmodel.Path {
		p := netmodel.Path{Cloud: netmodel.CloudID(ints()), Client: netmodel.ASN(ints())}
		if n := sliceOf(4); n >= 0 {
			p.Middle = make([]netmodel.ASN, n)
			for i := range p.Middle {
				p.Middle[i] = netmodel.ASN(ints())
			}
		}
		return p
	}
	report := func() *Report {
		rep := &Report{From: netmodel.Bucket(ints()), To: netmodel.Bucket(ints())}
		if n := sliceOf(6); n >= 0 {
			rep.Results = make([]core.Result, n)
			for i := range rep.Results {
				rep.Results[i] = core.Result{
					Q: quartet.Quartet{
						Obs: trace.Observation{
							Prefix: netmodel.PrefixID(ints()), Cloud: netmodel.CloudID(ints()), Device: netmodel.DeviceClass(r.Intn(3)),
							Bucket: netmodel.Bucket(ints()), Samples: ints(), MeanRTT: float(), Clients: ints(),
						},
						Target: float(), Enough: r.Intn(2) == 0, Bad: r.Intn(2) == 0,
					},
					Blame: core.Blame(r.Intn(6)), Path: path(), BlamedAS: netmodel.ASN(ints()),
				}
			}
		}
		if n := sliceOf(4); n >= 0 {
			rep.Verdicts = make([]active.Verdict, n)
			for i := range rep.Verdicts {
				is := active.Issue{
					Key: netmodel.MiddleKey(str()), Path: path(), Cloud: netmodel.CloudID(ints()), Bucket: netmodel.Bucket(ints()),
					ObservedClients: ints(), Lasted: ints(), ClientTime: float(),
				}
				if n := sliceOf(5); n >= 0 {
					is.Prefixes = make([]netmodel.PrefixID, n)
					for j := range is.Prefixes {
						is.Prefixes[j] = netmodel.PrefixID(ints())
					}
				}
				rep.Verdicts[i] = active.Verdict{
					Issue: is, Probed: r.Intn(2) == 0, OK: r.Intn(2) == 0, Degraded: r.Intn(2) == 0,
					AS: netmodel.ASN(ints()), Segment: netmodel.Segment(r.Intn(3)), IncreaseMS: float(),
				}
			}
		}
		if n := sliceOf(4); n >= 0 {
			rep.Tickets = make([]alerting.Ticket, n)
			for i := range rep.Tickets {
				rep.Tickets[i] = alerting.Ticket{
					ID: ints(), Bucket: netmodel.Bucket(ints()), Category: core.Blame(r.Intn(6)), Team: alerting.Team(str()),
					Impact: ints(), Cloud: netmodel.CloudID(ints()), MiddleKey: netmodel.MiddleKey(str()),
					ClientAS: netmodel.ASN(ints()), CulpritAS: netmodel.ASN(ints()), Summary: str(),
				}
			}
		}
		return rep
	}
	// check compares both encoders on rep and reports whether it was
	// refused.
	check := func(rep *Report) (refused bool) {
		t.Helper()
		got, gotErr := rep.CanonicalJSON()
		refused = gotErr != nil
		want, wantErr := json.Marshal(canonicalReport{
			From: rep.From, To: rep.To, Results: rep.Results, Verdicts: rep.Verdicts, Tickets: rep.Tickets,
		})
		switch {
		case (gotErr == nil) != (wantErr == nil), gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("CanonicalJSON err = %v, json.Marshal err = %v", gotErr, wantErr)
		case !bytes.Equal(got, want):
			t.Fatalf("CanonicalJSON wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
		got, gotErr = AppendVerdictsJSON([]byte("prefix"), rep.Verdicts)
		want, wantErr = json.Marshal(rep.Verdicts)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("AppendVerdictsJSON err = %v, json.Marshal err = %v", gotErr, wantErr)
		case wantErr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)):
			t.Fatalf("AppendVerdictsJSON wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
		return refused
	}
	for i := 0; i < 3000; i++ {
		check(report())
	}

	// Each unsupported float, in each float-valued field, fails both.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			rep := report()
			rep.Results = append(rep.Results, core.Result{})
			rep.Verdicts = append(rep.Verdicts, active.Verdict{})
			switch field {
			case 0:
				rep.Results[len(rep.Results)-1].Q.Obs.MeanRTT = bad
			case 1:
				rep.Results[len(rep.Results)-1].Q.Target = bad
			case 2:
				rep.Verdicts[len(rep.Verdicts)-1].Issue.ClientTime = bad
			case 3:
				rep.Verdicts[len(rep.Verdicts)-1].IncreaseMS = bad
			}
			if !check(rep) {
				t.Fatalf("a report holding %v in float field %d encoded", bad, field)
			}
		}
	}
}
