package pipeline

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"blameit/internal/active"
	"blameit/internal/alerting"
	"blameit/internal/core"
	"blameit/internal/netmodel"
)

// The canonical report is appended field by field, with no reflection, in
// exactly the bytes json.Marshal writes for canonicalReport:
// declaration-order keys (json tags where the types have them), no
// whitespace, nil slices as null, Verdict.Degraded omitted when false,
// floats in ES6 style and strings HTML-safe. TestCanonicalJSONMatchesEncodingJSON
// holds it to json.Marshal, which stays the reader (ReportFromCanonical).

// canonicalBufs holds the scratch a report is appended into; the caller
// gets an exact-size copy, as from json.Marshal, because reports are
// retained and journaled.
var canonicalBufs = sync.Pool{New: func() any { return new([]byte) }}

// jsonEnc appends JSON values to b. err is the first value json.Marshal
// would have refused (a NaN or an infinity); appending goes on regardless
// and the caller discards b.
type jsonEnc struct {
	b   []byte
	err error
}

func (e *jsonEnc) raw(s string) { e.b = append(e.b, s...) }

func (e *jsonEnc) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *jsonEnc) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float writes f as encoding/json does: the shortest decimal that reads
// back to f, in 'f' form unless |f| is below 1e-6 or at least 1e21, and an
// 'e' form's two-digit negative exponent cut to one digit (e-07 → e-7).
func (e *jsonEnc) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// string writes s quoted as encoding/json does with HTML escaping on:
// '"', '\\' and the control characters escaped (\b \f \n \r \t by name),
// '<', '>' and '&' as \u00XX, each byte of invalid UTF-8 as \ufffd, and
// U+2028 and U+2029 escaped.
func (e *jsonEnc) string(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// list writes s as a JSON array of its elements, or null when s is nil.
func list[E any](e *jsonEnc, s []E, elem func(*jsonEnc, *E)) {
	if s == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(e, &s[i])
	}
	e.b = append(e.b, ']')
}

// The field appenders write a key, with the punctuation before it, and
// its value.
func (e *jsonEnc) intField(key string, v int64)     { e.raw(key); e.int(v) }
func (e *jsonEnc) floatField(key string, f float64) { e.raw(key); e.float(f) }
func (e *jsonEnc) boolField(key string, v bool)     { e.raw(key); e.bool(v) }
func (e *jsonEnc) stringField(key, s string)        { e.raw(key); e.string(s) }

func (e *jsonEnc) asn(a *netmodel.ASN) { e.int(int64(*a)) }

func (e *jsonEnc) prefix(p *netmodel.PrefixID) { e.int(int64(*p)) }

func (e *jsonEnc) path(p *netmodel.Path) {
	e.intField(`{"Cloud":`, int64(p.Cloud))
	e.raw(`,"Middle":`)
	list(e, p.Middle, (*jsonEnc).asn)
	e.intField(`,"Client":`, int64(p.Client))
	e.raw(`}`)
}

func (e *jsonEnc) result(r *core.Result) {
	o := &r.Q.Obs
	e.intField(`{"Q":{"Obs":{"prefix":`, int64(o.Prefix))
	e.intField(`,"cloud":`, int64(o.Cloud))
	e.intField(`,"device":`, int64(o.Device))
	e.intField(`,"bucket":`, int64(o.Bucket))
	e.intField(`,"samples":`, int64(o.Samples))
	e.floatField(`,"mean_rtt_ms":`, o.MeanRTT)
	e.intField(`,"clients":`, int64(o.Clients))
	e.floatField(`},"Target":`, r.Q.Target)
	e.boolField(`,"Enough":`, r.Q.Enough)
	e.boolField(`,"Bad":`, r.Q.Bad)
	e.intField(`},"Blame":`, int64(r.Blame))
	e.raw(`,"Path":`)
	e.path(&r.Path)
	e.intField(`,"BlamedAS":`, int64(r.BlamedAS))
	e.raw(`}`)
}

func (e *jsonEnc) verdict(v *active.Verdict) {
	is := &v.Issue
	e.stringField(`{"Issue":{"Key":`, string(is.Key))
	e.raw(`,"Path":`)
	e.path(&is.Path)
	e.intField(`,"Cloud":`, int64(is.Cloud))
	e.intField(`,"Bucket":`, int64(is.Bucket))
	e.raw(`,"Prefixes":`)
	list(e, is.Prefixes, (*jsonEnc).prefix)
	e.intField(`,"ObservedClients":`, int64(is.ObservedClients))
	e.intField(`,"Lasted":`, int64(is.Lasted))
	e.floatField(`,"ClientTime":`, is.ClientTime)
	e.boolField(`},"Probed":`, v.Probed)
	e.boolField(`,"OK":`, v.OK)
	if v.Degraded {
		e.raw(`,"Degraded":true`)
	}
	e.intField(`,"AS":`, int64(v.AS))
	e.intField(`,"Segment":`, int64(v.Segment))
	e.floatField(`,"IncreaseMS":`, v.IncreaseMS)
	e.raw(`}`)
}

func (e *jsonEnc) ticket(t *alerting.Ticket) {
	e.intField(`{"ID":`, int64(t.ID))
	e.intField(`,"Bucket":`, int64(t.Bucket))
	e.intField(`,"Category":`, int64(t.Category))
	e.stringField(`,"Team":`, string(t.Team))
	e.intField(`,"Impact":`, int64(t.Impact))
	e.intField(`,"Cloud":`, int64(t.Cloud))
	e.stringField(`,"MiddleKey":`, string(t.MiddleKey))
	e.intField(`,"ClientAS":`, int64(t.ClientAS))
	e.intField(`,"CulpritAS":`, int64(t.CulpritAS))
	e.stringField(`,"Summary":`, t.Summary)
	e.raw(`}`)
}

// CanonicalJSON serializes the report's deterministic content — window,
// results, verdicts, and tickets, excluding Health and Final. Two runs over
// the same telemetry are equivalent exactly when their reports'
// CanonicalJSON streams are byte-identical; the replay and service
// equivalence tests hold trace replay to that standard. The bytes are
// json.Marshal's for canonicalReport, and so is the error: a NaN or
// infinite float is refused.
func (r *Report) CanonicalJSON() ([]byte, error) {
	scratch := canonicalBufs.Get().(*[]byte)
	defer canonicalBufs.Put(scratch)
	e := jsonEnc{b: (*scratch)[:0]}
	e.intField(`{"from":`, int64(r.From))
	e.intField(`,"to":`, int64(r.To))
	e.raw(`,"results":`)
	list(&e, r.Results, (*jsonEnc).result)
	e.raw(`,"verdicts":`)
	list(&e, r.Verdicts, (*jsonEnc).verdict)
	e.raw(`,"tickets":`)
	list(&e, r.Tickets, (*jsonEnc).ticket)
	e.raw(`}`)
	*scratch = e.b
	if e.err != nil {
		return nil, e.err
	}
	return append([]byte(nil), e.b...), nil
}

// AppendVerdictsJSON appends vs as json.Marshal writes a []active.Verdict
// (null when nil), in the form CanonicalJSON gives a report's verdicts.
// GET /v1/verdicts renders its windows with it.
func AppendVerdictsJSON(dst []byte, vs []active.Verdict) ([]byte, error) {
	e := jsonEnc{b: dst}
	list(&e, vs, (*jsonEnc).verdict)
	return e.b, e.err
}
