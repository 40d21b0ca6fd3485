package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unsafe"

	"blameit/internal/netmodel"
	"blameit/internal/trace"
)

// One grammar, one decoder. Both JSONL readers here — DecodeBatch behind
// POST /v1/ingest and DecodeAggBatch behind POST /v1/aggregates — decode
// a line with its record shape's decode: the canonical scanner first,
// encoding/json for anything else. The
// language accepted is encoding/json's (reordered keys, whitespace, unknown
// fields included); the scanner only makes the common case fast, and it
// accepts nothing encoding/json refuses and decodes nothing differently
// (FuzzDecodeBatches holds it to that).
//
// The canonical form of a record is what a json.Encoder emits for it: the
// struct's fields in declaration order, no inter-token whitespace, RFC 8259
// numbers. Every writer in this repo produces it.

// maxKeys bounds a record shape's key count.
const maxKeys = 10

// recordShape is one canonical JSONL record layout: the literal before
// each value, the one float-valued key among them, and how the scanned
// numbers become a record.
type recordShape[T any] struct {
	what  string   // the record's name in positioned errors
	lits  [][]byte // `{"k0":`, `,"k1":`, …
	float int      // index of the float-valued key; every other is an int
	build func(n [maxKeys]int64, f float64) T
}

// newShape builds a shape from the record's keys in declaration order,
// exactly one of which, floatKey, holds a float.
func newShape[T any](what, floatKey string, build func([maxKeys]int64, float64) T, keys ...string) *recordShape[T] {
	s := &recordShape[T]{what: what, float: slices.Index(keys, floatKey), build: build}
	if s.float < 0 || len(keys) > maxKeys {
		panic(fmt.Sprintf("ingest: %s shape: want at most %d keys, %q among them; have %q", what, maxKeys, floatKey, keys))
	}
	for i, k := range keys {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		s.lits = append(s.lits, []byte(sep+`"`+k+`":`))
	}
	return s
}

// obsShape is trace.Observation's canonical line, as trace.WriteJSONL
// writes it.
var obsShape = newShape("record", "mean_rtt_ms", func(n [maxKeys]int64, f float64) trace.Observation {
	return trace.Observation{
		Prefix: netmodel.PrefixID(n[0]), Cloud: netmodel.CloudID(n[1]), Device: netmodel.DeviceClass(n[2]),
		Bucket: netmodel.Bucket(n[3]), Samples: int(n[4]), MeanRTT: f, Clients: int(n[6]),
	}
}, "prefix", "cloud", "device", "bucket", "samples", "mean_rtt_ms", "clients")

// scan parses one line of the shape's canonical form into *dst, reporting
// whether it matched. It allocates nothing. On false *dst is untouched.
func (s *recordShape[T]) scan(line []byte, dst *T) bool {
	var n [maxKeys]int64
	var f float64
	p, ok := 0, false
	for i, lit := range s.lits {
		if !bytes.HasPrefix(line[p:], lit) {
			return false
		}
		p += len(lit)
		if i == s.float {
			f, p, ok = parseFloat(line, p)
		} else {
			n[i], p, ok = parseInt(line, p)
		}
		if !ok {
			return false
		}
	}
	if p == len(line) || line[p] != '}' || !isBlank(line[p+1:]) {
		return false
	}
	*dst = s.build(n, f)
	return true
}

// decode decodes one non-blank line into *dst: the canonical scanner, and
// encoding/json for every line the scanner declines. dst must not be a
// local the caller wants kept off the heap: it escapes into encoding/json.
func (s *recordShape[T]) decode(line []byte, dst *T) error {
	if s.scan(line, dst) {
		return nil
	}
	var zero T
	*dst = zero
	return json.Unmarshal(line, dst)
}

// decodeBatch decodes one bounded JSONL body of the shape's records,
// appending them to buf. Blank lines are skipped; a final line without a
// trailing newline is still a complete record; a line that is half a
// record is malformed. onBad selects the failure mode: when nil, the first
// undecodable line aborts the batch with a positioned error (record index
// and byte offset) and the caller should reject the whole batch; otherwise
// each undecodable line is handed to onBad (quarantine it there) and
// decoding continues on the next line.
func (s *recordShape[T]) decodeBatch(data []byte, buf []T, onBad func(line []byte)) ([]T, error) {
	offset, rec := 0, 0
	for len(data) > 0 {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line = data[:nl+1]
		}
		data = data[len(line):]
		lineStart := offset
		offset += len(line)
		if isBlank(line) {
			continue
		}
		// Decoded in place: the slice is on the heap already.
		buf = append(buf, *new(T))
		if err := s.decode(line, &buf[len(buf)-1]); err != nil {
			buf = buf[:len(buf)-1]
			if onBad == nil {
				return buf, fmt.Errorf("ingest: decoding %s %d (byte offset %d): %w", s.what, rec, lineStart, err)
			}
			onBad(line)
			continue
		}
		rec++
	}
	return buf, nil
}

// DecodeBatch decodes one bounded JSONL observation batch — the request
// body of a blameitd POST /v1/ingest — appending the records to buf and
// returning the extended slice. onBad selects strict (nil) or salvage mode
// (see recordShape.decodeBatch).
func DecodeBatch(data []byte, buf []trace.Observation, onBad func(line []byte)) ([]trace.Observation, error) {
	return obsShape.decodeBatch(data, buf, onBad)
}

// isBlank reports whether a line holds only JSON whitespace; blank lines
// are legal between records in both modes.
func isBlank(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// parseInt parses the RFC 8259 integer at b[i:] — an optional minus, then
// 0 or a nonzero digit and more digits — and returns it with the index
// just past it. A leading zero before a digit, a fraction, an exponent or
// an int64 overflow returns ok=false, leaving the line to encoding/json.
// Eighteen digits cannot overflow an int64, so only the digits past them
// pay the overflow check.
func parseInt(b []byte, i int) (int64, int, bool) {
	start := i
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	first := i
	var v int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if i-first >= 18 && v > (1<<63-1-int64(d))/10 {
			return 0, start, false
		}
		v = v*10 + int64(d)
	}
	if i == first || (b[first] == '0' && i-first > 1) || (i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		return 0, start, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// pow10tab holds the powers of ten that are exactly representable in a
// float64. Dividing an exact integer mantissa (< 2^53) by one of these is
// a single IEEE operation, so the result is correctly rounded — bit for
// bit what strconv.ParseFloat computes for the same input (Clinger's
// fast-path condition).
var pow10tab = [23]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10u64 holds the powers of ten that fit a uint64, the divisors of
// fixedPointExact.
var pow10u64 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// parseFloat parses the RFC 8259 number at b[i:] and returns it with the
// index just past it. It refuses what encoding/json refuses — a missing integer part, a leading zero before a digit, a bare
// or trailing '.', a leading '+' — in the same walk that parses it.
// Fixed-point numbers — the -?d+(.d+)? shape nearly every mean_rtt_ms value
// takes — are parsed directly: the significant digits accumulate into an
// integer mantissa, and the value is that mantissa over a power of ten,
// correctly rounded, so the hot path runs no strconv at all. A mantissa
// below 2^53 over at most 10^22 is one IEEE division (Clinger's fast path);
// a wider one of at most 18 digits over at most 10^19 is fixedPointExact.
// Exponents, longer spellings and the refusals go to parseFloatSlow,
// keeping every decoded bit identical to strconv's.
func parseFloat(b []byte, i int) (float64, int, bool) {
	start := i
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	intStart := i
	// Past 19 significant digits mant wraps; digits > 18 then sends the
	// number to parseFloatSlow, so the wrapped value is never used.
	var mant uint64
	digits := 0 // significant: leading zeros leave mant at 0 and count for nothing
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if mant = mant*10 + uint64(d); mant != 0 {
			digits++
		}
	}
	if i == intStart || (b[intStart] == '0' && i-intStart > 1) {
		return 0, start, false
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if mant = mant*10 + uint64(d); mant != 0 {
				digits++
			}
		}
		if frac = i - fracStart; frac == 0 {
			return 0, start, false
		}
	}
	if digits > 18 || (i < len(b) && (b[i] == 'e' || b[i] == 'E')) {
		return parseFloatSlow(b, start)
	}
	var f float64
	switch {
	case mant < 1<<53 && frac < len(pow10tab):
		f = float64(mant) / pow10tab[frac]
	case mant >= 1<<53 && frac < len(pow10u64):
		f = fixedPointExact(mant, pow10u64[frac])
	default:
		return parseFloatSlow(b, start)
	}
	if neg {
		f = -f
	}
	return f, i, true
}

// fixedPointExact returns mant/den correctly rounded (to nearest, ties to
// even) for 2^53 <= mant < 2^63 and den a power of ten below 2^64. Both are
// shifted until their top bit is set; one 128-by-64-bit division of the
// mantissa, widened by 64 zero bits, then yields a 64-bit quotient whose
// top bit is set, and its remainder is exactly the part of the value below
// the quotient's last bit. Keeping the 53 high bits, the 11 dropped bits
// and that remainder decide the rounding as an infinitely precise
// division would. The result, between 2^53/10^19 and 2^63, is a normal
// float64, so it is assembled from its bits.
func fixedPointExact(mant, den uint64) float64 {
	lm, ld := bits.LeadingZeros64(mant), bits.LeadingZeros64(den)
	m, d := mant<<lm, den<<ld
	// value = m/d · 2^(ld-lm); the quotient of (hi:lo)/d must fit 64 bits,
	// so a numerator at or above d is halved first.
	hi, lo, exp := m, uint64(0), ld-lm-64
	if m >= d {
		hi, lo, exp = m>>1, m<<63, exp+1
	}
	q, rem := bits.Div64(hi, lo, d) // value = (q + rem/d) · 2^exp, 2^63 <= q
	kept, dropped := q>>11, q&(1<<11-1)
	exp += 11
	const half = 1 << 10
	if dropped > half || (dropped == half && (rem != 0 || kept&1 == 1)) {
		kept++
		if kept == 1<<53 {
			kept >>= 1
			exp++
		}
	}
	// kept is in [2^52, 2^53): the value is 1.f · 2^(exp+52).
	return math.Float64frombits(uint64(exp+52+1023)<<52 | kept&(1<<52-1))
}

// parseFloatSlow is the general case: walk the RFC 8259 number at
// b[start:], -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and hand exactly
// that span to strconv.ParseFloat through an unsafe no-copy string —
// ParseFloat neither mutates nor retains its argument — so the conversion
// is exactly encoding/json's (correctly rounded, round-trip safe, out of
// range refused) without the per-field allocation.
func parseFloatSlow(b []byte, start int) (float64, int, bool) {
	digitsFrom := func(i int) int {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i
	}
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	end := digitsFrom(i)
	if end == i || (b[i] == '0' && end > i+1) {
		return 0, start, false
	}
	i = end
	if i < len(b) && b[i] == '.' {
		if end = digitsFrom(i + 1); end == i+1 {
			return 0, start, false
		}
		i = end
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if end = digitsFrom(i); end == i {
			return 0, start, false
		}
		i = end
	}
	seg := b[start:i]
	v, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(seg), len(seg)), 64)
	if err != nil {
		return 0, start, false
	}
	return v, i, true
}
