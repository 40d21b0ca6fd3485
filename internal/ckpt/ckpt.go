// Package ckpt is the binary codec of blameitd's state checkpoints. The
// daemon's stateful types append themselves to an Encoder, which streams
// what they write through a bounded buffer to a file and checksums it on
// the way, and restore themselves from a Decoder over the checked bytes.
//
// Every value has exactly one encoding: varints are minimal, booleans are
// 0 or 1, floats are their IEEE bits, and a collection is its length
// followed by its elements, with nil told apart from empty where the type
// tells them apart. The Decoder accepts nothing else, and the types decode
// their maps in the order they encode them (sorted), so a state restored
// from a checkpoint re-encodes to the bytes it came from.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"blameit/internal/netmodel"
)

// Table is the checksum of a checkpoint: CRC-32C, as the WAL's frames.
var Table = crc32.MakeTable(crc32.Castagnoli)

// bufBytes is the Encoder's buffer: what it holds before a write(2).
const bufBytes = 64 << 10

// Encoder appends values to a bounded buffer and writes it out each time
// it fills, keeping the CRC-32C of everything written. The first write
// error sticks; the values after it are dropped.
type Encoder struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   int64
	err error
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, bufBytes)}
}

// put keeps the bytes just appended, writing the buffer out once full.
func (e *Encoder) put(b []byte) {
	e.buf = b
	if len(e.buf) >= bufBytes-binary.MaxVarintLen64 {
		e.flush()
	}
}

func (e *Encoder) flush() {
	if len(e.buf) == 0 {
		return
	}
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.crc = crc32.Update(e.crc, Table, e.buf)
	e.n += int64(len(e.buf))
	e.buf = e.buf[:0]
}

// Flush writes out what is buffered and returns the bytes written, their
// CRC-32C, and the first write error.
func (e *Encoder) Flush() (n int64, crc uint32, err error) {
	e.flush()
	return e.n, e.crc, e.err
}

// Raw appends bytes as they are, unprefixed.
func (e *Encoder) Raw(b []byte) {
	for len(b) > 0 {
		k := min(len(b), bufBytes-len(e.buf))
		e.buf = append(e.buf, b[:k]...)
		b = b[k:]
		if len(e.buf) == bufBytes {
			e.flush()
		}
	}
}

// Uvarint appends an unsigned integer.
func (e *Encoder) Uvarint(v uint64) { e.put(binary.AppendUvarint(e.buf, v)) }

// Varint appends a signed integer.
func (e *Encoder) Varint(v int64) { e.put(binary.AppendVarint(e.buf, v)) }

// Int appends an int.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Len appends a non-negative count.
func (e *Encoder) Len(n int) { e.Uvarint(uint64(n)) }

// NilLen appends a slice's length, telling nil (0) from empty (1).
func (e *Encoder) NilLen(isNil bool, n int) {
	if isNil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(n) + 1)
}

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	b := uint64(0)
	if v {
		b = 1
	}
	e.Uvarint(b)
}

// F64 appends a float64's bits, so NaN payloads and signed zeros survive.
func (e *Encoder) F64(v float64) { e.put(binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))) }

// F64s appends floats without a length: the caller's encoding implies it.
func (e *Encoder) F64s(vs []float64) {
	if littleEndian && len(vs) > 0 {
		e.Raw(unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*len(vs)))
		return
	}
	for _, v := range vs {
		e.F64(v)
	}
}

// F32s appends float32s without a length.
func (e *Encoder) F32s(vs []float32) {
	if littleEndian && len(vs) > 0 {
		e.Raw(unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 4*len(vs)))
		return
	}
	for _, v := range vs {
		e.put(binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(v)))
	}
}

// littleEndian says whether a float's bytes in memory are its encoding,
// so that F64s and F32s copy them whole.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Len(len(s))
	e.Raw([]byte(s))
}

// Path appends a route.
func (e *Encoder) Path(p netmodel.Path) {
	e.Int(int(p.Cloud))
	e.NilLen(p.Middle == nil, len(p.Middle))
	for _, as := range p.Middle {
		e.Int(int(as))
	}
	e.Int(int(p.Client))
}

// Decoder reads what an Encoder wrote, refusing every byte sequence the
// Encoder would not have written. The first failure sticks: later reads
// return zero values, and Err reports it.
type Decoder struct {
	b   []byte
	i   int
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// ErrMalformed is wrapped by every decoding failure.
var ErrMalformed = errors.New("ckpt: malformed checkpoint")

// Err returns the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Failf records a failure found by the caller (a value out of its domain)
// unless one is already recorded.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w at byte %d: %s", ErrMalformed, d.i, fmt.Sprintf(format, args...))
	}
}

// Done fails unless every byte was read.
func (d *Decoder) Done() error {
	if d.err == nil && d.i != len(d.b) {
		d.Failf("%d trailing bytes", len(d.b)-d.i)
	}
	return d.err
}

// Left returns how many bytes are unread.
func (d *Decoder) Left() int { return len(d.b) - d.i }

// Raw reads n bytes as they are. The slice aliases the input.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil || n < 0 || n > d.Left() {
		d.Failf("short read of %d bytes", n)
		return nil
	}
	b := d.b[d.i : d.i+n]
	d.i += n
	return b
}

// Uvarint reads an unsigned integer in its minimal encoding.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 || n > 1 && d.b[d.i+n-1] == 0 {
		d.Failf("bad varint")
		return 0
	}
	d.i += n
	return v
}

// Varint reads a signed integer.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads an int; values outside int32 are refused, so that every field
// decoded through it fits the narrowest type the codec serves.
func (d *Decoder) Int() int {
	v := d.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.Failf("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Range reads an int in [lo, hi).
func (d *Decoder) Range(lo, hi int) int {
	v := d.Int()
	if d.err == nil && (v < lo || v >= hi) {
		d.Failf("%d outside [%d, %d)", v, lo, hi)
		return lo
	}
	return v
}

// Len reads a count of elements that take at least minBytes each, so a
// corrupt count cannot drive an allocation past the input's size.
func (d *Decoder) Len(minBytes int) int {
	v := d.Uvarint()
	if d.err == nil && v > uint64(d.Left()/max(minBytes, 1)) {
		d.Failf("count %d exceeds the input", v)
		return 0
	}
	return int(v)
}

// Bound reads a count no larger than limit.
func (d *Decoder) Bound(limit int) int {
	v := d.Uvarint()
	if d.err == nil && v > uint64(limit) {
		d.Failf("count %d exceeds %d", v, limit)
		return 0
	}
	return int(v)
}

// NilLen reads what Encoder.NilLen wrote.
func (d *Decoder) NilLen(minBytes int) (n int, isNil bool) {
	v := d.Uvarint()
	if v == 0 {
		return 0, true
	}
	if d.err == nil && v-1 > uint64(d.Left()/max(minBytes, 1)) {
		d.Failf("count %d exceeds the input", v-1)
		return 0, true
	}
	return int(v - 1), false
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	v := d.Uvarint()
	if v > 1 {
		d.Failf("bad boolean %d", v)
	}
	return v == 1
}

// F64 reads a float64.
func (d *Decoder) F64() float64 {
	b := d.Raw(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// F64s fills vs.
func (d *Decoder) F64s(vs []float64) {
	b := d.Raw(8 * len(vs))
	if b == nil {
		return
	}
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// F32s fills vs.
func (d *Decoder) F32s(vs []float32) {
	b := d.Raw(4 * len(vs))
	if b == nil {
		return
	}
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Raw(d.Len(1))) }

// Path reads a route.
func (d *Decoder) Path() netmodel.Path {
	p := netmodel.Path{Cloud: netmodel.CloudID(d.Int())}
	if n, isNil := d.NilLen(1); !isNil {
		p.Middle = make([]netmodel.ASN, n)
		for i := range p.Middle {
			p.Middle[i] = netmodel.ASN(d.Int())
		}
	}
	p.Client = netmodel.ASN(d.Int())
	return p
}

// A sparse array is encoded as the count of its present entries, then
// each entry's index as its gap from the one before, then the entry.

// Gap appends index i, following prev (-1 before the first).
func (e *Encoder) Gap(prev, i int) { e.Uvarint(uint64(i - prev - 1)) }

// Gap reads an index following prev (-1 before the first), below limit.
// After a failure it returns 0, which callers reading at most as many
// entries as limit may still index with.
func (d *Decoder) Gap(prev, limit int) int {
	g := d.Uvarint()
	if d.err == nil && g >= uint64(limit-prev-1) {
		d.Failf("index past %d", limit)
	}
	if d.err != nil {
		return 0
	}
	return prev + 1 + int(g)
}
