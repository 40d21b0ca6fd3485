package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"blameit/internal/netmodel"
)

// TestRoundTrip encodes one value of each kind through a buffer smaller
// than the input, so that it is written out in several pieces, and reads
// them all back.
func TestRoundTrip(t *testing.T) {
	var out bytes.Buffer
	e := NewEncoder(&out)
	big := make([]float64, bufBytes/4) // twice the buffer
	for i := range big {
		big[i] = float64(i) / 3
	}
	path := netmodel.Path{Cloud: 3, Middle: []netmodel.ASN{}, Client: 7}
	e.Uvarint(300)
	e.Int(-5)
	e.Bool(true)
	e.NilLen(true, 0)
	e.NilLen(false, 0)
	e.F64(math.Copysign(0, -1))
	e.F64s(big)
	e.F32s([]float32{1.5, float32(math.NaN())})
	e.String("key")
	e.Path(path)
	e.Gap(-1, 4)
	n, crc, err := e.Flush()
	if err != nil || n != int64(out.Len()) || crc != crc32.Checksum(out.Bytes(), Table) {
		t.Fatalf("Flush = %d bytes, crc %x, %v; wrote %d", n, crc, err, out.Len())
	}

	d := NewDecoder(out.Bytes())
	if v := d.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Int(); v != -5 {
		t.Errorf("Int = %d", v)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if _, isNil := d.NilLen(1); !isNil {
		t.Error("nil length read as empty")
	}
	if n, isNil := d.NilLen(1); isNil || n != 0 {
		t.Error("empty length read as nil")
	}
	if v := d.F64(); v != 0 || !math.Signbit(v) {
		t.Errorf("F64 = %v, want -0", v)
	}
	got := make([]float64, len(big))
	d.F64s(got)
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("F64s[%d] = %v, want %v", i, got[i], big[i])
		}
	}
	f32 := make([]float32, 2)
	d.F32s(f32)
	if f32[0] != 1.5 || f32[1] == f32[1] {
		t.Errorf("F32s = %v", f32)
	}
	if s := d.String(); s != "key" {
		t.Errorf("String = %q", s)
	}
	if p := d.Path(); p.Cloud != 3 || p.Middle == nil || len(p.Middle) != 0 || p.Client != 7 {
		t.Errorf("Path = %+v", p)
	}
	if i := d.Gap(-1, 10); i != 4 {
		t.Errorf("Gap = %d", i)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRefusesOtherEncodings holds the decoder to the one encoding
// of each value: what it accepts, the encoder wrote.
func TestDecoderRefusesOtherEncodings(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*Decoder)
	}{
		{"padded varint", []byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uvarint() }},
		{"boolean 2", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"int past int32", []byte{0x80, 0x80, 0x80, 0x80, 0x10}, func(d *Decoder) { d.Int() }},
		{"count past the input", []byte{5, 1}, func(d *Decoder) { d.Len(1) }},
		{"short float", []byte{1, 2, 3}, func(d *Decoder) { d.F64() }},
		{"gap past the limit", []byte{9}, func(d *Decoder) { d.Gap(-1, 9) }},
		{"trailing bytes", []byte{1, 1}, func(d *Decoder) { d.Uvarint() }},
	} {
		d := NewDecoder(tc.in)
		tc.read(d)
		if err := d.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", tc.name, err)
		}
	}
}

// TestSections writes three sections through a buffer smaller than the
// body, so that the marks fall in different writes, splits them back, and
// holds the split to the trailer the encoder writes: offsets swapped, one
// past the sections, two equal, a first section not at 0, and counts of
// zero or other than asked are each refused.
func TestSections(t *testing.T) {
	var out bytes.Buffer
	e := NewEncoder(&out)
	e.Raw([]byte("header"))
	want := [][]byte{bytes.Repeat([]byte{1}, bufBytes), {2, 2}, bytes.Repeat([]byte{3}, bufBytes/3)}
	for _, sec := range want {
		e.Mark()
		e.Raw(sec)
	}
	e.EndSections()
	if _, _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	body := out.Bytes()[len("header"):]
	got, err := Sections(body, len(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("section %d: %d bytes, want %d", i, len(got[i]), len(want[i]))
		}
		if cap(got[i]) != len(got[i]) {
			t.Errorf("section %d is not capped", i)
		}
	}
	trailer := len(body) - 4*(len(want)+1)
	offset := func(b []byte, i int) []byte { return b[trailer+4*i : trailer+4*i+4] }
	for _, tc := range []struct {
		name   string
		n      int
		damage func(b []byte)
	}{
		{"out of order", 3, func(b []byte) {
			x := binary.LittleEndian.Uint32(offset(b, 1))
			copy(offset(b, 1), offset(b, 2))
			binary.LittleEndian.PutUint32(offset(b, 2), x)
		}},
		{"past the body", 3, func(b []byte) { binary.LittleEndian.PutUint32(offset(b, 2), uint32(len(b))) }},
		{"overlapping", 3, func(b []byte) { copy(offset(b, 2), offset(b, 1)) }},
		{"first not at 0", 3, func(b []byte) { binary.LittleEndian.PutUint32(offset(b, 0), 1) }},
		{"zero count", 0, func(b []byte) { binary.LittleEndian.PutUint32(offset(b, 3), 0) }},
		{"another count", 2, func(b []byte) {}},
	} {
		b := bytes.Clone(body)
		tc.damage(b)
		if _, err := Sections(b, tc.n); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", tc.name, err)
		}
	}
	for _, short := range [][]byte{nil, {0, 0, 0}, {1, 0, 0, 0}} {
		if _, err := Sections(short, 1); !errors.Is(err, ErrMalformed) {
			t.Errorf("%d bytes: %v, want ErrMalformed", len(short), err)
		}
	}
}

// TestSlab holds a slab's pieces apart: each is zeroed and capped, so an
// append to one reallocates it and leaves the next as it was; an empty
// piece is not nil, and a nil slab allocates each piece alone.
func TestSlab(t *testing.T) {
	var s Slab[int]
	a, b := s.Take(3), s.Take(2)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("pieces of len/cap %d/%d and %d/%d", len(a), cap(a), len(b), cap(b))
	}
	b[0] = 7
	a = append(a, 9)
	if b[0] != 7 || a[3] != 9 {
		t.Errorf("an append to one piece reached the next: %v %v", a, b)
	}
	if e := s.Take(0); e == nil {
		t.Error("an empty piece is nil")
	}
	big := s.Take(slabBytes) // larger than a block
	if len(big) != slabBytes || big[slabBytes-1] != 0 {
		t.Errorf("a piece larger than a block: %d elements", len(big))
	}
	var none *Slab[int]
	if p := none.Take(2); len(p) != 2 || cap(p) != 2 {
		t.Errorf("a nil slab's piece: len %d cap %d", len(p), cap(p))
	}
	if p := none.Take(0); p == nil {
		t.Error("a nil slab's empty piece is nil")
	}
}

// TestSparse reads a sparse array of a claimed length back: its entries
// keep their indices, Span is one past the last, Dense lays them out at
// that length; an index at or past it fails the decoder, and a length far
// past what the input holds allocates nothing for it.
func TestSparse(t *testing.T) {
	encode := func(idx ...int) []byte {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.Len(len(idx))
		prev := -1
		for _, i := range idx {
			e.Gap(prev, i)
			prev = i
			e.Int(10 * i)
		}
		if _, _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	d := NewDecoder(encode(1, 4))
	s := ReadSparse(d, 6, d.Int)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if got := s.Dense(); s.Len != 6 || s.Span() != 5 || len(got) != 6 || got[1] != 10 || got[4] != 40 || got[0]+got[2]+got[3]+got[5] != 0 {
		t.Errorf("Len %d, Span %d, Dense %v", s.Len, s.Span(), got)
	}
	d = NewDecoder(encode(1, 6))
	if ReadSparse(d, 6, d.Int); d.Err() == nil {
		t.Error("an index at the length was read")
	}
	d = NewDecoder(encode(3))
	if s := ReadSparse(d, math.MaxInt32, d.Int); d.Err() != nil || s.Span() != 4 || cap(s.index) > 2 {
		t.Errorf("a claimed length of %d: span %d, %d slots, %v", s.Len, s.Span(), cap(s.index), d.Err())
	}
	var empty Sparse[int]
	if empty.Span() != 0 || len(empty.Dense()) != 0 {
		t.Error("an empty sparse array spans something")
	}
}
