package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// TestDecodeCanonicalRoundTrip feeds randomized observations through
// trace.WriteJSONL and checks the fast-path scanner reproduces exactly what
// encoding/json decodes — including floats that need all 17 significant
// digits, the round-trip case replay byte-equivalence depends on.
func TestDecodeCanonicalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	obs := make([]trace.Observation, 0, 2000)
	for i := 0; i < 2000; i++ {
		obs = append(obs, trace.Observation{
			Prefix:  netmodel.PrefixID(r.Intn(1 << 20)),
			Cloud:   netmodel.CloudID(r.Intn(64)),
			Device:  netmodel.DeviceClass(r.Intn(3)),
			Bucket:  netmodel.Bucket(r.Intn(1 << 16)),
			Samples: r.Intn(500),
			MeanRTT: math.Float64frombits(r.Uint64()>>12 | 0x3FF0000000000000), // [1,2) with full mantissa entropy
			Clients: r.Intn(1000),
		})
	}
	// A few structured extremes.
	obs = append(obs,
		trace.Observation{MeanRTT: 0},
		trace.Observation{MeanRTT: 1e-308},
		trace.Observation{MeanRTT: 5e-05},
		trace.Observation{MeanRTT: 1e+20},
		trace.Observation{Prefix: netmodel.PrefixID(math.MaxInt64), MeanRTT: 55.123456789012345},
	)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, obs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(buf.Bytes(), []byte("\n"))
	n := 0
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		var want trace.Observation
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		var got trace.Observation
		if !obsShape.scanLine(line, &got) {
			t.Fatalf("record %d: canonical line rejected by fast path: %s", n, line)
		}
		if got != want {
			t.Fatalf("record %d: fast path %+v != encoding/json %+v", n, got, want)
		}
		n++
	}
	if n != len(obs) {
		t.Fatalf("checked %d records, want %d", n, len(obs))
	}
}

// TestDecodeCanonicalFallsBack pins the fast path's refusal set: every
// valid-JSON deviation from the canonical shape must be declined (and left
// to encoding/json) rather than misparsed, every number spelling outside
// RFC 8259 declined (for encoding/json to refuse), and o must stay
// untouched.
func TestDecodeCanonicalFallsBack(t *testing.T) {
	reject := []string{
		`{"cloud":1,"prefix":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7}`,                    // reordered
		`{ "prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7}`,                   // whitespace
		`{"prefix":"1","cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7}`,                  // quoted number
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7,"x":1}`,              // extra field
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5}`,                                // missing field
		`{"prefix":1.5,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7}`,                  // fractional int
		`{"prefix":99999999999999999999,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7}`, // overflow
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7} trailing`,
		`[1,2,3]`,
		`not json`,
		// Number spellings strconv takes and RFC 8259 does not.
		`{"prefix":01,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7}`,
		`{"prefix":-01,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7}`,
		`{"prefix":+1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":01,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":+5,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":.5,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":-.5,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":1.,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":1e,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":01e5,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":1.e5,"clients":7}`,
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":0000000000000000000001,"clients":7}`,
	}
	for _, line := range reject {
		o := trace.Observation{Prefix: 42}
		if obsShape.scanLine([]byte(line), &o) {
			t.Errorf("fast path accepted non-canonical line: %s", line)
		}
		if o.Prefix != 42 {
			t.Errorf("fast path mutated o on rejection of: %s", line)
		}
	}
	// The accept set: exponent floats and negative numbers are canonical
	// when json.Marshal chooses those forms.
	accept := map[string]trace.Observation{
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":5e-05,"clients":7}`: {
			Prefix: 1, Cloud: 2, Bucket: 3, Samples: 30, MeanRTT: 5e-05, Clients: 7},
		`{"prefix":1,"cloud":2,"device":0,"bucket":3,"samples":30,"mean_rtt_ms":1e+20,"clients":7}` + "\n": {
			Prefix: 1, Cloud: 2, Bucket: 3, Samples: 30, MeanRTT: 1e20, Clients: 7},
		`{"prefix":-1,"cloud":2,"device":0,"bucket":3,"samples":-5,"mean_rtt_ms":-2.5,"clients":0}`: {
			Prefix: -1, Cloud: 2, Bucket: 3, Samples: -5, MeanRTT: -2.5, Clients: 0},
		// The longest record: every number at its longest spelling.
		`{"prefix":-9223372036854775808,"cloud":-9223372036854775808,"device":-9223372036854775808,"bucket":-9223372036854775808,` +
			`"samples":-9223372036854775808,"mean_rtt_ms":-0.0000012345678901234567,"clients":-9223372036854775808}`: {
			Prefix: math.MinInt64, Cloud: math.MinInt64, Device: math.MinInt64, Bucket: math.MinInt64,
			Samples: math.MinInt64, MeanRTT: -0.0000012345678901234567, Clients: math.MinInt64},
	}
	for line, want := range accept {
		var got trace.Observation
		if !obsShape.scanLine([]byte(line), &got) {
			t.Errorf("fast path rejected canonical line: %s", line)
			continue
		}
		if got != want {
			t.Errorf("line %s: got %+v, want %+v", line, got, want)
		}
	}
}

// TestParseFloatMatchesStrconv pins the fixed-point fast path to strconv
// bit for bit, straddling every envelope edge: mantissas at and beyond
// 2^53, 18- and 19-digit runs, deep fractions, negative zero, and the
// exponent/сompound shapes that must fall back. The spellings strconv
// takes and RFC 8259 does not are refused, on the fast path and the slow.
func TestParseFloatMatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "-0", "5", "-2.5", "44.125", "55.123456789012345",
		"9007199254740991", "9007199254740991.0", // 2^53-1: last exact mantissa
		"9007199254740992", "9007199254740993", // ≥ 2^53: fallback territory
		"999999999999999999", "1999999999999999999", // 18 and 19 digits
		"0.1", "0.30000000000000004", "123.4567890123456",
		"0.0000000000000000000001", "1.00000000000000000000001", // frac 22 and beyond
		"1e+20", "5e-05", "1.5E3", "1e-308", "0e0", "-0.5E-0", // exponent forms: fallback
	}
	refused := []string{
		"00", "01.5", "-01", "+5", ".5", "-.5", "1.", "-", "", // fast path
		"1e", "1e+", "01e5", "1.e5", "1E-", "0000000000000000000001", "1.0000000000000000000e", // slow path
		"1e999", "NaN", "Inf", "0x10", // strconv's other extensions, and out of range
	}
	for _, s := range refused {
		if v, rest, ok := parseFloatIn(s + ","); ok && rest == "," {
			t.Errorf("parseFloat(%q) = %v; want it refused", s, v)
		}
	}
	for _, s := range cases {
		got, rest, ok := parseFloatIn(s + ",")
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || !ok {
			t.Errorf("parseFloat(%q) ok=%v, strconv err=%v", s, ok, err)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("parseFloat(%q) = %b, strconv = %b", s, got, want)
		}
		if rest != "," {
			t.Errorf("parseFloat(%q) left %q unconsumed", s, rest)
		}
	}
	// A randomized sweep over the fixed-point shapes the trace writers emit.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		s := strconv.FormatFloat(math.Float64frombits(r.Uint64()>>12|0x3FF0000000000000)*float64(r.Intn(1000)+1), 'f', -1, 64)
		got, _, ok := parseFloatIn(s)
		want, _ := strconv.ParseFloat(s, 64)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v (ok=%v), strconv = %v", s, got, ok, want)
		}
	}
}

// windowOf is s at the start of a scan window, followed by spaces: bytes
// that continue no number or record.
func windowOf(s string) *window {
	var w window
	copy(w[:], strings.Repeat(" ", windowLen))
	copy(w[:], s)
	return &w
}

// parseFloatIn runs parseFloat over s in a window and returns what of s it
// left. s must be shorter than windowSpan.
func parseFloatIn(s string) (float64, string, bool) {
	v, end, ok := parseFloat(windowOf(s), 0)
	return v, s[end:], ok
}

// TestFixedPointMatchesStrconv pins the wide fixed-point path — mantissas
// of 2^53 and more, up to 18 significant digits over up to 10^19 — to
// strconv bit for bit: a seeded sweep of a million spellings with 16–18
// significant digits, 0–19 fractional digits and both signs, the exact
// halfway cases between adjacent float64s (where rounding is ties to
// even), the neighbours of powers of two, and the spellings on either side
// of the path's 18-digit and 19-fractional-digit edges.
func TestFixedPointMatchesStrconv(t *testing.T) {
	check := func(s string) {
		t.Helper()
		got, rest, ok := parseFloatIn(s + "}")
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || !ok || rest != "}" || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v (ok=%v, rest %q), strconv = %v (%v)", s, got, ok, rest, want, err)
		}
	}
	for _, s := range []string{
		"9007199254740993", "4503599627370496.5", "-9007199254740993", // ties, to even
		"9007199254740995", "4503599627370497.5", "2251799813685248.25", // ties, to odd's neighbour
		"123456789012345678", "1234567890123456789", // 18 against 19 digits
		"0.123456789012345678", "0.1234567890123456789",
		"0.0123456789012345678", "0.00123456789012345678", // 19 against 20 fractional digits
		"0.0900719925474099300", "0.09007199254740993",
		"999999999999999999", "99999999999999999.9", "0.0999999999999999999",
	} {
		check(s)
	}
	// Halfway points between adjacent float64s in [2^51, 2^60), which have
	// at most 18 significant digits, and the neighbours of each power of
	// two: mant at 2^k plus or minus up to eight units in the last place.
	r := rand.New(rand.NewSource(11))
	exact := func(q *big.Rat) string {
		for frac := 0; frac <= 19; frac++ {
			s := q.FloatString(frac)
			var back big.Rat
			if _, ok := back.SetString(s); ok && back.Cmp(q) == 0 {
				return s
			}
		}
		return ""
	}
	for k := 51; k < 60; k++ {
		for i := 0; i < 2000; i++ {
			x := math.Ldexp(1+float64(r.Int63n(1<<52))/(1<<52), k)
			lo, hi := new(big.Rat).SetFloat64(x), new(big.Rat).SetFloat64(math.Nextafter(x, math.Inf(1)))
			if s := exact(lo.Add(lo, hi).Quo(lo, big.NewRat(2, 1))); s != "" {
				check(s)
			}
		}
		p2 := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(k)))
		for num := int64(-8); num <= 8; num++ {
			for _, den := range []int64{1, 2, 4, 8, 10, 100} {
				if s := exact(new(big.Rat).Add(p2, big.NewRat(num, den))); s != "" && len(strings.TrimLeft(strings.Replace(s, ".", "", 1), "0")) <= 18 {
					check(s)
				}
			}
		}
	}
	// The seeded sweep.
	digits := make([]byte, 0, 40)
	for i := 0; i < 1_000_000; i++ {
		sig, frac := 16+r.Intn(3), r.Intn(20)
		digits = digits[:0]
		if r.Intn(2) == 0 {
			digits = append(digits, '-')
		}
		sigDigits := strconv.AppendUint(nil, uint64(r.Int63n(9e17)+1e17), 10)[:sig]
		switch {
		case frac == 0:
			digits = append(digits, sigDigits...)
		case frac < sig:
			digits = append(append(append(digits, sigDigits[:sig-frac]...), '.'), sigDigits[sig-frac:]...)
		default:
			digits = append(digits, "0."...)
			digits = append(append(digits, strings.Repeat("0", frac-sig)...), sigDigits...)
		}
		check(string(digits))
	}
}

// TestReadersAgreeLineByLine feeds each line to every reader of the one
// grammar — DecodeBatch, strict and salvage, on the observation shape,
// and DecodeAggBatch, strict and salvage, on its
// aggregate-shaped twin. All of them take the line or all refuse it, as
// encoding/json does, and what they take decodes to encoding/json's value,
// bit for bit.
func TestReadersAgreeLineByLine(t *testing.T) {
	const (
		obsLine = `{"prefix":%s,"cloud":1,"device":0,"bucket":3,"samples":20,"mean_rtt_ms":%s,"clients":9}`
		aggLine = `{"agent":2,"epoch":0,"seq":7,"bucket":3,"prefix":%s,"cloud":1,"device":0,"samples":20,"mean_rtt_ms":%s,"clients":9}`
	)
	type twin struct {
		name     string
		obs, agg string
		accept   bool
	}
	var cases []twin
	// Each number spelling in an integer slot and in the float slot.
	for _, n := range []struct {
		spelling       string
		asInt, asFloat bool
	}{
		{"0", true, true}, {"-0", true, true}, {"1e5", false, true}, {"-2.5E-3", false, true},
		{"-9223372036854775808", true, true}, {"9223372036854775808", false, true}, // int64 overflow
		{"01", false, false}, {"-01", false, false}, {"+5", false, false}, {".5", false, false},
		{"1.", false, false}, {"1e", false, false}, {"01e5", false, false}, {"1e999", false, false},
		{"NaN", false, false},
	} {
		cases = append(cases,
			twin{n.spelling + " as an integer", fmt.Sprintf(obsLine, n.spelling, "40.5"), fmt.Sprintf(aggLine, n.spelling, "40.5"), n.asInt},
			twin{n.spelling + " as a float", fmt.Sprintf(obsLine, "5", n.spelling), fmt.Sprintf(aggLine, "5", n.spelling), n.asFloat})
	}
	// Each departure from the canonical layout.
	for _, s := range []struct {
		name   string
		f      func(string) string
		accept bool
	}{
		{"canonical", func(l string) string { return l }, true},
		{"reordered", func(l string) string {
			kv := strings.Split(l[1:len(l)-1], ",")
			slices.Reverse(kv)
			return "{" + strings.Join(kv, ",") + "}"
		}, true},
		{"padded", func(l string) string { return " " + strings.NewReplacer(",", " ,\t", ":", ": ").Replace(l) + " \r" }, true},
		{"unknown field", func(l string) string { return strings.Replace(l, "{", `{"x":[1,{"y":null}],`, 1) }, true},
		{"truncated", func(l string) string { return l[:len(l)/2] }, false},
	} {
		cases = append(cases, twin{s.name, s.f(fmt.Sprintf(obsLine, "5", "40.5")), s.f(fmt.Sprintf(aggLine, "5", "40.5")), s.accept})
	}

	// A reader returns the records it made of one line and how many lines
	// it refused (a strict error counts as one).
	readers := map[string]func(obs, agg string) ([]trace.Observation, int){
		"DecodeBatch strict": func(obs, _ string) ([]trace.Observation, int) {
			got, err := DecodeBatch([]byte(obs+"\n"), nil, nil)
			if err != nil {
				return nil, 1
			}
			return got, 0
		},
		"DecodeBatch salvage": func(obs, _ string) ([]trace.Observation, int) {
			refused := 0
			got, _ := DecodeBatch([]byte(obs+"\n"), nil, func([]byte) { refused++ })
			return got, refused
		},
		"DecodeAggBatch strict": func(_, agg string) ([]trace.Observation, int) {
			cells, err := DecodeAggBatch([]byte(agg+"\n"), nil, nil)
			if err != nil {
				return nil, 1
			}
			return observationsOf(cells), 0
		},
		"DecodeAggBatch salvage": func(_, agg string) ([]trace.Observation, int) {
			refused := 0
			cells, _ := DecodeAggBatch([]byte(agg+"\n"), nil, func([]byte) { refused++ })
			return observationsOf(cells), refused
		},
	}
	for _, c := range cases {
		var ref trace.Observation
		if err := json.Unmarshal([]byte(c.obs), &ref); (err == nil) != c.accept {
			t.Fatalf("%s: encoding/json err = %v on %s, the table says accept = %v", c.name, err, c.obs, c.accept)
		}
		for name, read := range readers {
			got, refused := read(c.obs, c.agg)
			switch {
			case len(got)+refused != 1:
				t.Errorf("%s: %s made %d records and %d refusals of one line", c.name, name, len(got), refused)
			case (len(got) == 1) != c.accept:
				t.Errorf("%s: %s took the line = %v, encoding/json = %v", c.name, name, len(got) == 1, c.accept)
			case c.accept && (got[0] != ref || math.Float64bits(got[0].MeanRTT) != math.Float64bits(ref.MeanRTT)):
				t.Errorf("%s: %s decoded %+v, encoding/json %+v", c.name, name, got[0], ref)
			}
		}
	}
}

func observationsOf(cells []AggCell) []trace.Observation {
	var out []trace.Observation
	for _, c := range cells {
		out = append(out, c.Observation())
	}
	return out
}
