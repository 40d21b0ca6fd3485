package ingest

import (
	"bytes"
	"encoding/binary"
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
// POST /v1/ingest and DecodeAggBatch behind POST /v1/aggregates — decode a
// body with their record shape's decodeBatch: the word scanner over the
// body, and for each line it declines, encoding/json. The language
// accepted is encoding/json's (reordered keys, whitespace, unknown fields
// included); the scanner only makes the common case fast, and it accepts
// nothing encoding/json refuses and decodes nothing differently
// (FuzzDecodeBatches holds every record of a body to encoding/json on its
// line).
//
// The canonical form of a record is what a json.Encoder emits for it: the
// struct's fields in declaration order, no inter-token whitespace, RFC 8259
// numbers. Every writer in this repo produces it.
//
// The scanner reads a little-endian word at a time: a key literal is two
// masked word compares, and a number's digits are found and converted
// eight at a time (leadDigits). Its loads reach past the record they read,
// so it reads a record inside a window: the windowLen bytes from the
// record's first byte, as a fixed-size array. Every index it forms is
// reduced mod windowSpan, which changes none of them (newShape checks that
// no record the scanner takes reaches that far) and lets the compiler drop
// most bounds checks. The body's last lines lack a window's slack; each of
// them is scanned from a copy padded to a window (scanLine) instead, one
// line at a time.

// maxKeys bounds a record shape's key count.
const maxKeys = 10

// The word path's limits: the longest integer it reads
// (-9223372036854775808) and the longest float spelling it lets a record
// hold (encoding/json's longest, -0.0000012345678901234567), how far past
// a number's first byte parseInt or parseFloat may read, the span a
// record's scan stays within, and the window: the span and the word a load
// at its end reads.
const (
	maxIntLen   = 20
	maxFloatLen = 25
	numberReach = 32
	windowSpan  = 512
	windowLen   = windowSpan + 8
)

// window is the bytes a record is scanned in.
type window = [windowLen]byte

// at is the byte at w[i] and le64 the little-endian word there; i is
// below windowSpan wherever the scanner forms it.
func at(w *window, i int) byte { return w[uint(i)%windowSpan] }

func le64(w *window, i int) uint64 {
	j := uint(i) % windowSpan
	return binary.LittleEndian.Uint64(w[j : j+8 : j+8])
}

// keyLit is the literal before one value, `{"k":` or `,"k":`, as two
// little-endian words and the masks that keep its own bytes of each.
type keyLit struct {
	lo, hi, loMask, hiMask uint64
	n                      int
}

// recordShape is one canonical JSONL record layout: the literal before
// each value, the one float-valued key among them, and how the scanned
// numbers become a record.
type recordShape[T any] struct {
	what  string // the record's name in positioned errors
	lits  []keyLit
	float int // index of the float-valued key; every other is an int
}

// newShape builds a shape from the record's keys in declaration order,
// exactly one of which, floatKey, holds a float. The scan of its longest
// record, literals and numbers at their longest and the last number's
// reach, must fit windowSpan.
func newShape[T any](what, floatKey string, keys ...string) *recordShape[T] {
	s := &recordShape[T]{what: what, float: slices.Index(keys, floatKey)}
	if s.float < 0 || len(keys) > maxKeys {
		panic(fmt.Sprintf("ingest: %s shape: want at most %d keys, %q among them; have %q", what, maxKeys, floatKey, keys))
	}
	mask := func(n int) uint64 { return 1<<(8*min(max(n, 0), 8)) - 1 }
	longest := (len(keys)-1)*maxIntLen + maxFloatLen + numberReach
	for i, k := range keys {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		lit := sep + `"` + k + `":`
		if len(lit) > 16 {
			panic(fmt.Sprintf("ingest: %s shape: key %q is longer than two words", what, k))
		}
		var w [16]byte
		copy(w[:], lit)
		s.lits = append(s.lits, keyLit{
			lo: binary.LittleEndian.Uint64(w[:8]), hi: binary.LittleEndian.Uint64(w[8:]),
			loMask: mask(len(lit)), hiMask: mask(len(lit) - 8), n: len(lit),
		})
		longest += len(lit)
	}
	if longest > windowSpan {
		panic(fmt.Sprintf("ingest: %s shape: a record may reach %d bytes, past the %d-byte window", what, longest, windowSpan))
	}
	return s
}

// obsShape is trace.Observation's canonical line, as trace.WriteJSONL
// writes it.
var obsShape = newShape[trace.Observation]("record", "mean_rtt_ms",
	"prefix", "cloud", "device", "bucket", "samples", "mean_rtt_ms", "clients")

// build writes a scanned record's numbers, n by key and f, into *dst. It
// is a type switch over the wire records rather than a func value in the
// shape, so the call inlines and n stays in the scanner's frame.
func build[T any](dst *T, n *[maxKeys]int64, f float64) {
	switch d := any(dst).(type) {
	case *trace.Observation:
		d.Prefix, d.Cloud, d.Device, d.Bucket = netmodel.PrefixID(n[0]), netmodel.CloudID(n[1]), netmodel.DeviceClass(n[2]), netmodel.Bucket(n[3])
		d.Samples, d.MeanRTT, d.Clients = int(n[4]), f, int(n[6])
	case *AggCell:
		*d = AggCell{
			Agent: int(n[0]), Epoch: int(n[1]), Seq: n[2], Bucket: netmodel.Bucket(n[3]),
			Prefix: netmodel.PrefixID(n[4]), Cloud: netmodel.CloudID(n[5]), Device: netmodel.DeviceClass(n[6]),
			Samples: int(n[7]), MeanRTT: f, Clients: int(n[9]),
		}
	default:
		panic(fmt.Sprintf("ingest: no builder for %T", dst))
	}
}

// scan decodes the canonical record at the start of w into *dst and
// returns the bytes it took, its line's newline included. It allocates
// nothing; on false *dst is untouched.
func (s *recordShape[T]) scan(w *window, dst *T) (int, bool) {
	var n [maxKeys]int64
	var f float64
	i, ok, lits := 0, false, s.lits
	for k := range lits {
		lit := &lits[k]
		if (le64(w, i)^lit.lo)&lit.loMask|(le64(w, i+8)^lit.hi)&lit.hiMask != 0 {
			return 0, false
		}
		i += lit.n
		if k == s.float {
			start := i
			if f, i, ok = parseFloat(w, i); !ok || i-start > maxFloatLen {
				return 0, false
			}
			continue
		}
		// parseInt's common case, inline (a '.' or 'e' after the digits
		// fails the next literal instead); parseInt for the rest.
		x := le64(w, i)
		if v, d := leadDigits(x); shortInt(x, d) {
			n[k], i = int64(v), i+d
		} else if n[k], i, ok = parseInt(w, i); !ok {
			return 0, false
		}
	}
	if at(w, i) != '}' {
		return 0, false
	}
	for i++; i < windowSpan; i++ {
		switch at(w, i) {
		case '\n':
			build(dst, &n, f)
			return i + 1, true
		case ' ', '\t', '\r':
		default:
			return 0, false
		}
	}
	return 0, false
}

// scanLine runs scan over a copy of one line, padded with a newline to a
// full window: the scanner for a line too near the body's end to be read
// in place. It reports whether the line is one canonical record.
func (s *recordShape[T]) scanLine(line []byte, dst *T) bool {
	if len(line) >= windowLen {
		return false
	}
	var w window
	copy(w[:], line)
	w[len(line)] = '\n'
	n, ok := s.scan(&w, dst)
	return ok && n >= len(line)
}

// decodeBatch decodes one bounded JSONL body of the shape's records,
// appending them to buf. Blank lines are skipped; a final line without a
// trailing newline is still a complete record; a line that is half a
// record is malformed. onBad selects the failure mode: when nil, the first
// undecodable line aborts the batch with a positioned error (record index
// and byte offset) and the caller should reject the whole batch; otherwise
// each undecodable line is handed to onBad (quarantine it there) and
// decoding continues on the next line.
//
// A record with a window of the body ahead is scanned in place; only a
// line the scanner declines, or one of the body's last, is split off and
// taken by the line path: scanLine if the scanner has not seen it, then
// encoding/json.
func (s *recordShape[T]) decodeBatch(data []byte, buf []T, onBad func(line []byte)) ([]T, error) {
	for p, rec := 0, 0; p < len(data); {
		// Decoded in place: the slice is on the heap already.
		buf = append(buf, *new(T))
		dst := &buf[len(buf)-1]
		inPlace := len(data)-p >= windowLen
		if inPlace {
			if n, ok := s.scan((*window)(data[p:]), dst); ok {
				p, rec = p+n, rec+1
				continue
			}
		}
		line := data[p:]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl+1]
		}
		lineStart := p
		p += len(line)
		if isBlank(line) {
			buf = buf[:len(buf)-1]
			continue
		}
		if !inPlace && s.scanLine(line, dst) {
			rec++
			continue
		}
		if err := json.Unmarshal(line, dst); err != nil {
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

// leadDigits reads the ASCII digits that open the little-endian word w
// and returns their value and count (0 to 8). A byte is a digit when
// subtracting '0' borrows nothing and adding 0x46 carries nothing into its
// top bit; a borrow or carry between bytes starts only at a non-digit and
// only garbles the bytes after it, which are not counted. The digits are
// then moved to the word's top, behind zeros, and the eight paired, the
// pairs paired and those combined, in three multiplications (Lemire's SWAR
// conversion). With no digits (k = 0) the value is meaningless: the shift
// is taken mod 64, so the compiler adds no test for a shift of 64.
func leadDigits(w uint64) (uint64, int) {
	d := w - 0x3030303030303030
	k := bits.TrailingZeros64((w+0x4646464646464646|d)&0x8080808080808080) >> 3
	d <<= uint(64-8*k) & 63
	d = d*10 + d>>8
	return ((d&0x000000FF000000FF)*(100+1000000<<32) + (d>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32, k
}

// digitRun reads the run of ASCII digits at w[j:] a word at a time onto v
// (v·10^n + the run) and returns the result with the run's length n. It
// stops once before+n passes 19, the digits a uint64 always holds: the
// caller then refuses the number or leaves it to the general path, and
// neither the value nor a longer n is meaningful. Otherwise the run ended
// inside the last word loaded, so w[j+n] was read. It reads at most 24
// bytes past j.
func digitRun(w *window, j int, v uint64, before int) (uint64, int) {
	n := 0
	for {
		d, k := leadDigits(le64(w, j+n))
		if k == 0 {
			return v, n
		}
		v = v*pow10u64[k] + d
		if n += k; k < 8 || before+n > 19 {
			return v, n
		}
	}
}

// parseInt parses the RFC 8259 integer at w[i:] — an optional minus, then
// 0 or a nonzero digit and more digits — and returns it with the index
// just past it. A leading zero before a digit, a fraction, an exponent or
// an int64 overflow returns ok=false, leaving the line to encoding/json.
// The common case, one to seven digits and no sign, is one word; the rest
// is parseIntWide.
func parseInt(w *window, i int) (int64, int, bool) {
	x := le64(w, i)
	if v, k := leadDigits(x); shortInt(x, k) && at(w, i+k) != '.' && at(w, i+k)|0x20 != 'e' {
		return int64(v), i + k, true
	}
	return parseIntWide(w, i)
}

// shortInt reports whether the k digits that open x are parseInt's common
// case: one to seven of them, and no leading zero.
func shortInt(x uint64, k int) bool { return uint(k-1) < 7 && (k == 1 || byte(x) != '0') }

// parseIntWide is parseInt for any spelling: nineteen digits always fit a
// uint64, so the range check is one compare.
func parseIntWide(w *window, i int) (int64, int, bool) {
	j := i
	if at(w, j) == '-' {
		j++
	}
	v, n := digitRun(w, j, 0, 0)
	if c := at(w, j+n); n == 0 || n > 19 || (n > 1 && at(w, j) == '0') || c == '.' || c|0x20 == 'e' {
		return 0, i, false
	}
	if j > i {
		if v > 1<<63 {
			return 0, i, false
		}
		return -int64(v), j + n, true
	}
	if v > 1<<63-1 {
		return 0, i, false
	}
	return int64(v), j + n, true
}

// pow10tab holds the powers of ten up to the widest fraction parseFloat
// divides by. All are exactly representable in a float64, so dividing an
// exact integer mantissa (< 2^53) by one is a single IEEE operation, and
// the result is correctly rounded — bit for bit what strconv.ParseFloat
// computes for the same input (Clinger's fast-path condition).
var pow10tab = [19]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18,
}

// pow10u64 holds the powers of ten that fit a uint64: digitRun's shifts
// and the divisors of fixedPointExact.
var pow10u64 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// parseFloat parses the RFC 8259 number at w[i:] and returns it with the
// index just past it. It refuses what encoding/json refuses — a missing
// integer part, a leading zero before a digit, a bare or trailing '.', a
// leading '+' — in the same walk that parses it. Fixed-point numbers of
// at most 19 digits — the -?d+(.d+)? shape nearly every mean_rtt_ms value
// takes — are parsed directly: the integer and fraction digits are read a
// word at a time into an integer mantissa, and the value is that mantissa
// over a power of ten, correctly rounded, so the hot path runs no strconv
// at all. A mantissa below 2^53 is one IEEE division (Clinger's fast
// path); a wider one of at most 18 digits is fixedPointExact. Exponents
// and longer spellings go to parseFloatSlow, keeping every decoded bit
// identical to strconv's.
func parseFloat(w *window, i int) (float64, int, bool) {
	start := i
	neg := at(w, i) == '-'
	if neg {
		i++
	}
	// The integer part nearly always ends in its first word.
	mant, whole := leadDigits(le64(w, i))
	if whole == 8 {
		mant, whole = digitRun(w, i, 0, 0)
	}
	if whole == 0 || (whole > 1 && at(w, i) == '0') {
		return 0, start, false
	}
	if whole > 19 {
		return parseFloatSlow(w[:], start)
	}
	i += whole
	frac := 0
	if at(w, i) == '.' {
		if mant, frac = digitRun(w, i+1, mant, whole); frac == 0 {
			return 0, start, false
		}
		i += 1 + frac
	}
	// Past 19 digits mant may have wrapped; past 18 significant ones it is
	// no longer fixedPointExact's. Either way, and for an exponent, the
	// general path decides.
	if whole+frac > 19 || mant >= 1e18 || at(w, i)|0x20 == 'e' {
		return parseFloatSlow(w[:], start)
	}
	var f float64
	if mant < 1<<53 {
		f = float64(mant) / pow10tab[frac]
	} else {
		f = fixedPointExact(mant, pow10u64[frac])
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
