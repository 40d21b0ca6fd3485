package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeBatches throws arbitrary bytes at the two JSONL readers —
// DecodeBatch behind POST /v1/ingest, DecodeAggBatch behind POST
// /v1/aggregates — and holds every record they make to encoding/json on
// its line, whichever path took it: the word scanner in place, scanLine
// on the body's last lines, or the fallback. The invariants, for both:
// nothing panics; salvage mode never errors, decodes exactly the non-blank
// lines encoding/json decodes, one for one and bit for bit, and hands
// exactly the others to onBad; strict mode decodes the same records up to
// the first line encoding/json refuses and names that line's record index
// and byte offset; and every line the canonical scanner accepts,
// encoding/json accepts with the same value — one language, whichever
// decoder a line reaches.
func FuzzDecodeBatches(f *testing.F) {
	const (
		obs = `{"prefix":1,"cloud":0,"device":0,"bucket":0,"samples":20,"mean_rtt_ms":40.5,"clients":9}`
		agg = `{"agent":2,"epoch":1,"seq":7,"bucket":12,"prefix":1,"cloud":0,"device":2,"samples":20,"mean_rtt_ms":40.5,"clients":9}`
	)
	f.Add([]byte(obs + "\n"))
	f.Add([]byte(agg + "\n"))
	// 17 and 18 significant digits: mantissas past 2^53, the wide
	// fixed-point path.
	f.Add([]byte(`{"prefix":1,"cloud":0,"device":0,"bucket":0,"samples":20,"mean_rtt_ms":44.123456789012345,"clients":9}` + "\n" +
		`{"prefix":2,"cloud":0,"device":1,"bucket":0,"samples":20,"mean_rtt_ms":0.0123456789012345678,"clients":9}` + "\n"))
	f.Add([]byte(`{"agent":2,"epoch":1,"seq":7,"bucket":12,"prefix":1,"cloud":0,"device":2,"samples":20,"mean_rtt_ms":123456789.012345678,"clients":9}` + "\n"))
	for _, line := range []string{obs, agg} {
		long := strings.Repeat(line+"\n", 6)
		f.Add([]byte(long + line))                                           // the last line without its newline
		f.Add([]byte(line + "\r\n" + line + "\r\n"))                         // CRLF, and a body shorter than a window
		f.Add([]byte(long + strings.Replace(line, "}", "} \t\r", 1) + "\n")) // blanks after the brace
		f.Add([]byte("\n \n" + long + "\n\n"))                               // blank lines
		// Integers of 8 and 9 digits (one word, and one past it), negative,
		// and with a leading zero.
		for _, n := range []string{"12345678", "123456789", "-12345678", "-9223372036854775808", "012", "-0"} {
			f.Add([]byte(long + strings.Replace(line, `"samples":20`, `"samples":`+n, 1) + "\n" + line + "\n"))
		}
	}
	// A last line whose record starts exactly one window, or a byte less or
	// more, before the body's end: the edge of the in-place scan; and the
	// longest record it takes, every number at its longest spelling.
	const i, x = "-9223372036854775808", "-0.0000012345678901234567"
	longestObs := `{"prefix":` + i + `,"cloud":` + i + `,"device":` + i + `,"bucket":` + i + `,"samples":` + i + `,"mean_rtt_ms":` + x + `,"clients":` + i + `}`
	longestAgg := `{"agent":` + i + `,"epoch":` + i + `,"seq":` + i + `,"bucket":` + i + `,"prefix":` + i + `,"cloud":` + i + `,"device":` + i +
		`,"samples":` + i + `,"mean_rtt_ms":` + x + `,"clients":` + i + `}`
	for _, line := range []string{obs, agg, longestObs, longestAgg} {
		for _, n := range []int{windowLen - 1, windowLen, windowLen + 1} {
			last := line + strings.Repeat(" ", n-len(line)-1) + "\n"
			f.Add([]byte(line + "\n" + last))
			f.Add([]byte(line + "\n" + last[:n-1]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchDecoder(t, "DecodeBatch", data, DecodeBatch, obsShape.scanLine)
		checkBatchDecoder(t, "DecodeAggBatch", data, DecodeAggBatch, aggShape.scanLine)
	})
}

func checkBatchDecoder[T any](t *testing.T, name string, data []byte,
	decode func([]byte, []T, func([]byte)) ([]T, error), scanLine func([]byte, *T) bool) {
	same := func(a, b T) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

	// The oracle: encoding/json on each non-blank line.
	var want []T
	var refused [][]byte
	firstRefused, before, offset := -1, 0, 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		lineStart := offset
		offset += len(line)
		if isBlank(line) {
			continue
		}
		var ref, fast T
		err := json.Unmarshal(line, &ref)
		if scanLine(line, &fast) {
			if err != nil {
				t.Fatalf("%s: the canonical scanner accepted %q, which encoding/json refuses: %v", name, line, err)
			}
			if !same(fast, ref) {
				t.Fatalf("%s: the canonical scanner read %q as %+v, encoding/json as %+v", name, line, fast, ref)
			}
		}
		if err != nil {
			if firstRefused < 0 {
				firstRefused, before = lineStart, len(want)
			}
			refused = append(refused, line)
			continue
		}
		want = append(want, ref)
	}

	var bad [][]byte
	salvaged, err := decode(data, nil, func(line []byte) { bad = append(bad, line) })
	if err != nil {
		t.Fatalf("%s: salvage mode returned an error: %v", name, err)
	}
	if len(salvaged) != len(want) {
		t.Fatalf("%s: salvage mode decoded %d records, encoding/json %d", name, len(salvaged), len(want))
	}
	for i := range want {
		if !same(salvaged[i], want[i]) {
			t.Fatalf("%s: record %d is %+v, encoding/json reads its line as %+v", name, i, salvaged[i], want[i])
		}
	}
	if !slices.EqualFunc(bad, refused, bytes.Equal) {
		t.Fatalf("%s: salvage mode refused %q, encoding/json %q", name, bad, refused)
	}

	strict, err := decode(data, nil, nil)
	switch {
	case firstRefused < 0 && err != nil:
		t.Fatalf("%s: strict mode failed on a body encoding/json takes whole: %v", name, err)
	case firstRefused >= 0 && err == nil:
		t.Fatalf("%s: strict mode took a body whose line at byte %d encoding/json refuses", name, firstRefused)
	case firstRefused >= 0 && !strings.Contains(err.Error(), fmt.Sprintf(" %d (byte offset %d)", before, firstRefused)):
		t.Fatalf("%s: strict mode error %q; the first refused line is record %d at byte %d", name, err, before, firstRefused)
	case firstRefused < 0 && len(strict) != len(want), firstRefused >= 0 && len(strict) != before:
		t.Fatalf("%s: strict mode decoded %d records of %d", name, len(strict), len(want))
	}
	for i := range strict {
		if !same(strict[i], want[i]) {
			t.Fatalf("%s: record %d is %+v in strict mode, encoding/json reads %+v", name, i, strict[i], want[i])
		}
	}
}

// FuzzParseInt holds the word-at-a-time integer scanner to the grammar and
// to strconv: parseInt accepts exactly the inputs that open with an RFC
// 8259 integer, -?(0|[1-9][0-9]*), that no digit, '.', 'e' or 'E' continues
// and that strconv.ParseInt takes as an int64, consumes exactly that span,
// and reads it to strconv's value.
func FuzzParseInt(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "7,", "12345678", "123456789}", "-12345678", "1234567890123456", "12345678901234567",
		"999999999999999999", "9999999999999999999", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "99999999999999999999", "123456789012345678901234",
		"01", "-01", "00", "1.5", "1e5", "7E2", "12a", "-", "", "+1", " 1", "\xff1",
	} {
		f.Add(s)
	}
	integer := regexp.MustCompile(`^-?(0|[1-9][0-9]*)`)
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) >= windowSpan {
			return
		}
		got, end, ok := parseInt(windowOf(s), 0)
		span := integer.FindString(s)
		want, err := strconv.ParseInt(span, 10, 64)
		continues := len(s) > len(span) && strings.IndexByte("0123456789.eE", s[len(span)]) >= 0
		accept := span != "" && err == nil && !continues
		switch {
		case ok != accept:
			t.Fatalf("parseInt(%q) ok=%v; the grammar's span is %q, strconv err %v", s, ok, span, err)
		case ok && end != len(span):
			t.Fatalf("parseInt(%q) consumed %q, the grammar's span is %q", s, s[:end], span)
		case ok && got != want:
			t.Fatalf("parseInt(%q) = %d, strconv = %d", s, got, want)
		case !ok && end != 0:
			t.Fatalf("parseInt(%q) refused the input but moved to %d", s, end)
		}
	})
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
		if len(s) >= windowSpan {
			return
		}
		got, rest, ok := parseFloatIn(s)
		end := len(s) - len(rest)
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
