package ckpt

import (
	"bytes"
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
