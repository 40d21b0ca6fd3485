package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeBatches throws arbitrary bytes at the two JSONL readers —
// DecodeBatch behind POST /v1/ingest, DecodeAggBatch behind POST
// /v1/aggregates — and so at obsShape.decode and aggShape.decode. The
// invariants, for both:
// nothing panics; strict mode errors or succeeds, and what it decoded
// before stopping is what salvage mode decoded too; salvage mode never
// errors, and every non-blank line is either decoded or handed to onBad,
// where it really is undecodable; and every line the canonical scanner
// accepts, encoding/json accepts too, with a bit-identical value — one
// language, whichever decoder a line reaches.
func FuzzDecodeBatches(f *testing.F) {
	f.Add([]byte(`{"prefix":1,"cloud":0,"device":0,"bucket":0,"samples":20,"mean_rtt_ms":40.5,"clients":9}` + "\n"))
	f.Add([]byte(`{"agent":2,"epoch":1,"seq":7,"bucket":12,"prefix":1,"cloud":0,"device":2,"samples":20,"mean_rtt_ms":40.5,"clients":9}` + "\n"))
	// 17 and 18 significant digits: mantissas past 2^53, the wide
	// fixed-point path.
	f.Add([]byte(`{"prefix":1,"cloud":0,"device":0,"bucket":0,"samples":20,"mean_rtt_ms":44.123456789012345,"clients":9}` + "\n" +
		`{"prefix":2,"cloud":0,"device":1,"bucket":0,"samples":20,"mean_rtt_ms":0.0123456789012345678,"clients":9}` + "\n"))
	f.Add([]byte(`{"agent":2,"epoch":1,"seq":7,"bucket":12,"prefix":1,"cloud":0,"device":2,"samples":20,"mean_rtt_ms":123456789.012345678,"clients":9}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchDecoder(t, "DecodeBatch", data, DecodeBatch, obsShape.scan)
		checkBatchDecoder(t, "DecodeAggBatch", data, DecodeAggBatch, aggShape.scan)
	})
}

func checkBatchDecoder[T any](t *testing.T, name string, data []byte,
	decode func([]byte, []T, func([]byte)) ([]T, error), canonical func([]byte, *T) bool) {
	same := func(a, b T) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

	var bad [][]byte
	salvaged, err := decode(data, nil, func(line []byte) { bad = append(bad, line) })
	if err != nil {
		t.Fatalf("%s: salvage mode returned an error: %v", name, err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	nonBlank := 0
	for _, line := range lines {
		if !isBlank(line) {
			nonBlank++
		}
	}
	if len(salvaged)+len(bad) != nonBlank {
		t.Fatalf("%s: %d non-blank lines became %d records and %d refusals", name, nonBlank, len(salvaged), len(bad))
	}
	for _, line := range bad {
		var v T
		if canonical(line, &v) || json.Unmarshal(line, &v) == nil {
			t.Fatalf("%s: refused a decodable line %q", name, line)
		}
	}

	strict, err := decode(data, nil, nil)
	if (err == nil) != (len(bad) == 0) {
		t.Fatalf("%s: strict mode err = %v with %d undecodable lines", name, err, len(bad))
	}
	if len(strict) > len(salvaged) || (err == nil && len(strict) != len(salvaged)) {
		t.Fatalf("%s: strict mode decoded %d records, salvage mode %d", name, len(strict), len(salvaged))
	}
	for i := range strict {
		if !same(strict[i], salvaged[i]) {
			t.Fatalf("%s: record %d is %+v in strict mode, %+v in salvage mode", name, i, strict[i], salvaged[i])
		}
	}

	for _, line := range lines {
		var fast, ref T
		if !canonical(line, &fast) {
			continue
		}
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("%s: the canonical scanner accepted %q, which encoding/json refuses: %v", name, line, err)
		}
		if !same(fast, ref) {
			t.Fatalf("%s: the canonical scanner read %q as %+v, encoding/json as %+v", name, line, fast, ref)
		}
	}
}

// FuzzParseFloat holds the number scanner to strconv and to the grammar:
// parseFloat accepts exactly the inputs that open with an RFC 8259 number
// (longest match) that nothing malformed continues and that
// strconv.ParseFloat takes in range, consumes exactly that span, and reads
// it to strconv's bits.
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{
		"40.5", "-0", "9007199254740993", "4503599627370496.5", "44.123456789012345",
		"123456789012345678", "1234567890123456789", "0.0123456789012345678", "0.00123456789012345678",
		"1e-308", "1.5E3,", "01", "1.", "0.0.", "-", "0.000000000000000000001}", "1e999",
	} {
		f.Add(s)
	}
	number := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	f.Fuzz(func(t *testing.T, s string) {
		got, end, ok := parseFloat([]byte(s), 0)
		span := number.FindString(s)
		want, err := strconv.ParseFloat(span, 64)
		// The number must end at the span: a byte that would continue it
		// (a digit, a first '.', a first exponent) makes the input malformed.
		continues := false
		if len(s) > len(span) {
			c := s[len(span)]
			continues = c >= '0' && c <= '9' ||
				c == '.' && !strings.ContainsAny(span, ".eE") ||
				(c == 'e' || c == 'E') && !strings.ContainsAny(span, "eE")
		}
		accept := span != "" && err == nil && !continues
		switch {
		case ok != accept:
			t.Fatalf("parseFloat(%q) ok=%v; the grammar's span is %q, strconv err %v", s, ok, span, err)
		case ok && end != len(span):
			t.Fatalf("parseFloat(%q) consumed %q, the grammar's span is %q", s, s[:end], span)
		case ok && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("parseFloat(%q) = %v, strconv = %v", s, got, want)
		}
	})
}
