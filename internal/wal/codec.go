package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
	"blameit/internal/parallel"
	"blameit/internal/trace"
)

// Record framing. Every record is
//
//	[uint32 payload length][uint32 CRC-32C of payload][payload]
//
// little-endian, where payload is one type byte followed by the
// type-specific body. The CRC covers the whole payload, so a torn write —
// a partial length, a partial payload, or a payload that never made it to
// disk at all — fails validation and the scanner truncates the log at the
// last record that checks out. Lengths are validated against the
// configured maximum before any allocation, so a corrupt length field
// (even one that survives the CRC of some earlier record) cannot drive an
// out-of-memory allocation.
const (
	frameHeader = 8 // uint32 length + uint32 crc

	recMeta = 0x01 // configuration fingerprint; first record of every segment
	// 0x02 was format version 1's compaction snapshot marker.
	recBatch = 0x03 // one accepted ingest batch, in queue order
	// 0x04 was format version 5's consumed bucket stream.
	recSeal     = 0x05 // one explicit watermark advance
	recReport   = 0x06 // one published report: its index, the reads before it, its canonical JSON
	recAggBatch = 0x07 // one accepted /v1/aggregates cell batch, in queue order
	// 0x08 was format version 2's aggregate-flush marker, 0x09 format
	// version 5's skip record.
	recBase = 0x0a // the journal folded before a journal segment: its second record
	recRead = 0x0b // one bucket read: the bucket and how many observations it served
)

// The record types each family's segments may hold.
var (
	journalKinds = string([]byte{recMeta, recBase, recBatch, recAggBatch, recSeal, recRead})
	reportKinds  = string([]byte{recMeta, recReport})
)

// segment file header: magic + format version. Version 2 dropped the
// snapshot record; version 3 dropped the agg-flush record. Version 4 moved
// the batches into a family of their own and version 5 the reports, and
// opened every history segment with a base record. Version 6 put the
// batches back in the journal, each read in place of the stream it
// served: a read is its bucket and its count, re-derived on replay.
const (
	segMagic   = "BLAMEWAL"
	segVersion = 6
	segHeader  = len(segMagic) + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// beginFrame starts a record of the given type on buf: the header's room,
// then the type byte. The caller appends the body and calls sealFrame.
func beginFrame(buf []byte, typ byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
}

// sealFrame fills in the header of the record begun at buf[start:].
func sealFrame(buf []byte, start int) {
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
}

// frameLen reads a frame header's payload length; false marks a length no
// record can have.
func frameLen(hdr []byte) (int64, bool) {
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	return n, n != 0 && n <= maxRecordBytes
}

func crcMatches(hdr, payload []byte) bool {
	return crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(hdr[4:8])
}

// rawRecord is one CRC-valid record as scanned from a segment, with its
// decoded body and how many bytes its frame takes. The body slice aliases
// the scanned file buffer; decoded values own their memory.
type rawRecord struct {
	typ  byte
	body []byte
	val  any
	size int64
}

// scanRecords walks data (a segment's bytes after the header) and returns
// the longest prefix of frame-valid, body-decodable records of the given
// kinds plus the byte offset where that prefix ends. Anything after the
// returned offset — a torn frame, a CRC mismatch, an over-long length, a
// type the family does not hold, or an undecodable body — is the corrupt
// tail the caller truncates.
//
// Frames are checked in order, since each one's position depends on the
// length before it. The bodies are independent once framed, so they decode
// on every core, each into its own record; the prefix is then cut at the
// first body that failed, as a sequential decode would have stopped there.
func scanRecords(data []byte, kinds string) (recs []rawRecord, valid int64) {
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			break
		}
		n, ok := frameLen(rest)
		if !ok || n > int64(len(rest))-frameHeader {
			break
		}
		payload := rest[frameHeader : frameHeader+n]
		if !crcMatches(rest, payload) || strings.IndexByte(kinds, payload[0]) < 0 {
			break
		}
		recs = append(recs, rawRecord{typ: payload[0], body: payload[1:], size: frameHeader + n})
		off += frameHeader + n
	}
	ok := make([]bool, len(recs))
	parallel.ForEach(len(recs), parallel.Resolve(0), func(i int) {
		recs[i].val, ok[i] = decodeBody(recs[i].typ, recs[i].body)
	})
	for i := range recs {
		if !ok[i] {
			return recs[:i], valid
		}
		valid += recs[i].size
	}
	return recs, valid
}

// reader is a bounds-checked cursor over a record body. Any overrun sets
// err and subsequent reads return zero values, so decoders can read the
// whole shape and check err once. The cursor is an index into b rather
// than a re-sliced b, so that advancing it stores no pointer: a decoder
// reading through *reader pays no GC write barrier per field.
type reader struct {
	b   []byte
	i   int
	err bool
}

// left is how many body bytes the cursor has not consumed.
func (r *reader) left() int { return len(r.b) - r.i }

func (r *reader) varint() int64 {
	// Most journaled integers fit one or two bytes; binary.Varint's general
	// loop is kept for the rest and for every malformed case.
	if i := r.i; i+1 < len(r.b) {
		b0, b1 := r.b[i], r.b[i+1]
		if b0 < 0x80 {
			r.i = i + 1
			return int64(b0>>1) ^ -int64(b0&1)
		}
		if b1 < 0x80 {
			r.i = i + 2
			ux := uint64(b0&0x7f) | uint64(b1)<<7
			return int64(ux>>1) ^ -int64(ux&1)
		}
	}
	v, n := binary.Varint(r.b[r.i:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.i += n
	return v
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.i += n
	return v
}

// position reads a count — of reads, of reports, of observations served —
// bounded to an int32.
func (r *reader) position() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.err = true
		return 0
	}
	return int(v)
}

func (r *reader) f64() float64 {
	if r.left() < 8 {
		r.err = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:]))
	r.i += 8
	return v
}

func (r *reader) rest() []byte {
	b := r.b[r.i:]
	r.i = len(r.b)
	return b
}

func (r *reader) empty() bool { return r.i == len(r.b) }

// Observation codec: varints for the integer fields (chaos-corrupted
// records can carry negative samples or clients, so everything is
// sign-aware) and the raw IEEE bits for MeanRTT so NaN and ±Inf round-trip
// exactly — the quarantine must see post-restart exactly what it saw live.
const minObsBytes = 5 + 8 + 1 // five 1-byte varints, 8-byte float, 1-byte varint

func appendObs(buf []byte, obs []trace.Observation) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(obs)))
	for i := range obs {
		o := &obs[i]
		buf = binary.AppendVarint(buf, int64(o.Prefix))
		buf = binary.AppendVarint(buf, int64(o.Cloud))
		buf = binary.AppendVarint(buf, int64(o.Device))
		buf = binary.AppendVarint(buf, int64(o.Bucket))
		buf = binary.AppendVarint(buf, int64(o.Samples))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.MeanRTT))
		buf = binary.AppendVarint(buf, int64(o.Clients))
	}
	return buf
}

// readObs reads an observation list.
func readObs(r *reader) []trace.Observation {
	n := r.uvarint()
	if r.err || n > uint64(r.left()/minObsBytes)+1 {
		r.err = true
		return nil
	}
	obs := make([]trace.Observation, 0, n)
	for i := uint64(0); i < n; i++ {
		var o trace.Observation
		o.Prefix = netmodel.PrefixID(r.varint())
		o.Cloud = netmodel.CloudID(r.varint())
		o.Device = netmodel.DeviceClass(r.varint())
		o.Bucket = netmodel.Bucket(r.varint())
		o.Samples = int(r.varint())
		o.MeanRTT = r.f64()
		o.Clients = int(r.varint())
		if r.err {
			return nil
		}
		obs = append(obs, o)
	}
	return obs
}

const minCellBytes = 9 + 8 // nine 1-byte varints, 8-byte float

func appendCells(buf []byte, cells []ingest.AggCell) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cells)))
	for i := range cells {
		c := &cells[i]
		buf = binary.AppendVarint(buf, int64(c.Agent))
		buf = binary.AppendVarint(buf, int64(c.Epoch))
		buf = binary.AppendVarint(buf, c.Seq)
		buf = binary.AppendVarint(buf, int64(c.Bucket))
		buf = binary.AppendVarint(buf, int64(c.Prefix))
		buf = binary.AppendVarint(buf, int64(c.Cloud))
		buf = binary.AppendVarint(buf, int64(c.Device))
		buf = binary.AppendVarint(buf, int64(c.Samples))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.MeanRTT))
		buf = binary.AppendVarint(buf, int64(c.Clients))
	}
	return buf
}

// readCells is readObs for aggregate cells.
func readCells(r *reader) []ingest.AggCell {
	n := r.uvarint()
	if r.err || n > uint64(r.left()/minCellBytes)+1 {
		r.err = true
		return nil
	}
	cells := make([]ingest.AggCell, 0, n)
	for i := uint64(0); i < n; i++ {
		var c ingest.AggCell
		c.Agent = int(r.varint())
		c.Epoch = int(r.varint())
		c.Seq = r.varint()
		c.Bucket = netmodel.Bucket(r.varint())
		c.Prefix = netmodel.PrefixID(r.varint())
		c.Cloud = netmodel.CloudID(r.varint())
		c.Device = netmodel.DeviceClass(r.varint())
		c.Samples = int(r.varint())
		c.MeanRTT = r.f64()
		c.Clients = int(r.varint())
		if r.err {
			return nil
		}
		cells = append(cells, c)
	}
	return cells
}

// appendPosition encodes a base record's body: the reads, the last one's
// bucket and the report records.
func appendPosition(buf []byte, p position) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.reads))
	buf = binary.AppendVarint(buf, int64(p.last))
	return binary.AppendUvarint(buf, uint64(p.reports))
}

// readPosition reads what appendPosition wrote.
func readPosition(r *reader) position {
	return position{reads: r.position(), last: netmodel.Bucket(r.varint()), reports: r.position()}
}

// readReport reads a report record's body: its header, then the canonical
// bytes, which alias the body.
func readReport(r *reader) Report {
	rep := Report{Index: r.position(), AfterBuckets: r.position()}
	rep.Seq = r.varint()
	rep.From = netmodel.Bucket(r.varint())
	rep.To = netmodel.Bucket(r.varint())
	rep.Final = r.varint() != 0
	rep.Canonical = r.rest()
	return rep
}

// decodeBody checks one record body by type and decodes it. A false
// return marks the record — and everything after it — as the corrupt
// tail.
func decodeBody(typ byte, body []byte) (val any, ok bool) {
	r := &reader{b: body}
	switch typ {
	case recMeta:
		return string(body), true
	case recBatch:
		val = Record{Kind: KindBatch, Obs: readObs(r)}
	case recAggBatch:
		val = Record{Kind: KindBatch, Cells: readCells(r)}
	case recSeal:
		val = Record{Kind: KindSeal, Bucket: netmodel.Bucket(r.varint())}
	case recRead:
		val = Record{Kind: KindRead, Bucket: netmodel.Bucket(r.varint()), Served: r.position()}
	case recBase:
		val = readPosition(r)
	case recReport:
		rep := readReport(r)
		rep.Canonical = append([]byte(nil), rep.Canonical...)
		return rep, !r.err
	default:
		return nil, false
	}
	return val, !r.err && r.empty()
}
