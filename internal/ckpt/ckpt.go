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
//
// A body may be cut into sections (Mark, EndSections) that restore
// independently of one another: a trailer after the last one gives each
// section's offset, so that a reader can hand them to several goroutines.
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
	// marks are the offsets of the sections Mark started.
	marks []int64
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

// Mark starts a section: what is appended from here to the next Mark, or
// to EndSections, is one section of the body the first Mark starts.
func (e *Encoder) Mark() { e.marks = append(e.marks, e.n+int64(len(e.buf))) }

// EndSections closes the sections marked with their trailer: each one's
// offset from the first, then their count, every one a little-endian
// uint32. The Encoder streams what it is given, so the sections' lengths
// cannot be written ahead of them.
func (e *Encoder) EndSections() {
	if len(e.marks) == 0 {
		return
	}
	if end := e.n + int64(len(e.buf)) - e.marks[0]; end > math.MaxUint32 && e.err == nil {
		e.err = fmt.Errorf("ckpt: sections of %d bytes", end)
	}
	for _, m := range e.marks {
		e.put(binary.LittleEndian.AppendUint32(e.buf, uint32(m-e.marks[0])))
	}
	e.put(binary.LittleEndian.AppendUint32(e.buf, uint32(len(e.marks))))
	e.marks = e.marks[:0]
}

// Sections splits a body EndSections closed into its n sections. The
// trailer must be the one the Encoder writes: a count of n, at least one,
// and n offsets, the first 0 and each past the one before, the last
// before the trailer. The sections alias body.
func Sections(body []byte, n int) ([][]byte, error) {
	fail := func(format string, args ...any) ([][]byte, error) {
		return nil, fmt.Errorf("%w: section trailer: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
	if len(body) < 4 {
		return fail("%d bytes", len(body))
	}
	count := binary.LittleEndian.Uint32(body[len(body)-4:])
	if n < 1 || count != uint32(n) {
		return fail("%d sections, want %d", count, n)
	}
	if 4*(n+1) > len(body) {
		return fail("%d sections in %d bytes", n, len(body))
	}
	end := len(body) - 4*(n+1) // the trailer's start
	offs := body[end:]
	secs := make([][]byte, n)
	prev := -1
	for i := range secs {
		off := binary.LittleEndian.Uint32(offs[4*i:])
		switch {
		case i == 0 && off != 0:
			return fail("the first section at %d", off)
		case int64(off) >= int64(end):
			return fail("section %d at %d, past the %d bytes of sections", i, off, end)
		case int(off) <= prev:
			return fail("section %d at %d, not after %d", i, off, prev)
		}
		if i > 0 {
			secs[i-1] = body[prev:off:off]
		}
		prev = int(off)
	}
	secs[n-1] = body[prev:end:end]
	return secs, nil
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
func (d *Decoder) Path() netmodel.Path { return d.SlabPath(nil) }

// SlabPath reads a route whose middle is cut from asns.
func (d *Decoder) SlabPath(asns *Slab[netmodel.ASN]) netmodel.Path {
	p := netmodel.Path{Cloud: netmodel.CloudID(d.Int())}
	if n, isNil := d.NilLen(1); !isNil {
		p.Middle = asns.Take(n)
		for i := range p.Middle {
			p.Middle[i] = netmodel.ASN(d.Int())
		}
	}
	p.Client = netmodel.ASN(d.Int())
	return p
}

// slabBytes is the size of the blocks a Slab cuts from.
const slabBytes = 64 << 10

// Slab cuts the many small slices a restore makes from a few large
// blocks, so that the garbage collector has fewer objects to track and
// less reason to run. Each piece is capped at its length: appending to one
// reallocates it rather than running into the next. The zero Slab is ready
// to use; it is not safe for concurrent use.
type Slab[T any] struct{ free []T }

// Take returns n zeroed elements, never nil. A nil Slab allocates each
// piece on its own.
func (s *Slab[T]) Take(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if n > len(s.free) || s.free == nil {
		var zero T
		s.free = make([]T, max(n, slabBytes/max(1, int(unsafe.Sizeof(zero)))))
	}
	t := s.free[:n:n]
	s.free = s.free[n:]
	return t
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

// Sparse is a sparse array decoded before the length it must have is
// known: its length as encoded and its present entries, in index order.
// The caller checks the length, then lays the entries out (Dense, Each).
type Sparse[T any] struct {
	Len   int
	index []int
	vals  []T
}

// ReadSparse reads a sparse array of length n, each entry's value read by
// val; an index at or past n fails the decoder. Nothing is allocated for
// the absent entries, so n may be anything a checkpoint claims.
func ReadSparse[T any](d *Decoder, n int, val func() T) Sparse[T] {
	s := Sparse[T]{Len: n}
	k := d.Bound(n)
	// Each entry takes a byte at least: the capacity is what the input
	// can hold.
	s.index = make([]int, 0, min(k, d.Left()))
	s.vals = make([]T, 0, min(k, d.Left()))
	prev := -1
	for ; k > 0 && d.Err() == nil; k-- {
		i := d.Gap(prev, n)
		prev = i
		v := val()
		if d.Err() != nil {
			break
		}
		s.index = append(s.index, i)
		s.vals = append(s.vals, v)
	}
	return s
}

// Span is one past the last entry's index: the least length the entries
// fit.
func (s *Sparse[T]) Span() int {
	if len(s.index) == 0 {
		return 0
	}
	return s.index[len(s.index)-1] + 1
}

// Each calls f on every entry, in index order.
func (s *Sparse[T]) Each(f func(i int, v T)) {
	for k, i := range s.index {
		f(i, s.vals[k])
	}
}

// Dense lays the entries out in an array of Len elements.
func (s *Sparse[T]) Dense() []T {
	a := make([]T, s.Len)
	s.Each(func(i int, v T) { a[i] = v })
	return a
}
