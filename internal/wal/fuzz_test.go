package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"blameit/internal/ingest"
)

// appendFrame frames one payload (type byte first) onto buf.
func appendFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(beginFrame(buf, payload[0]), payload[1:]...)
	sealFrame(buf, start)
	return buf
}

// FuzzWALDecode drives the segment record scanner over arbitrary bytes.
// The scanner sits on the recovery path of every daemon restart, so it
// must uphold, for ANY input: no panic, no out-of-bounds, a valid offset
// (the truncation point never exceeds the input), and prefix consistency
// (the records it accepts re-encode to exactly the bytes it consumed —
// what recovery replays is what was on disk). Compaction's streaming
// scanner, which checks bodies without decoding them, must accept exactly
// the same prefix frame for frame: it rewrites what recovery will read.
func FuzzWALDecode(f *testing.F) {
	// Seed corpus: a valid log, a torn tail, a bit flip, a zero-length
	// record, and a giant-length record.
	valid := appendFrame(nil, append([]byte{recMeta}, "m"...))
	valid = appendFrame(valid, appendObs([]byte{recBatch}, obsFor(3, 2)))
	valid = appendFrame(valid, binary.AppendVarint([]byte{recSeal}, 7))
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped) // bit flip
	var zero [8]byte
	f.Add(append(append([]byte(nil), valid...), zero[:]...)) // zero-length record
	giant := append([]byte(nil), valid...)
	giant = binary.LittleEndian.AppendUint32(giant, 0xFFFFFFF0) // giant length
	giant = binary.LittleEndian.AppendUint32(giant, 0)
	f.Add(giant)
	f.Add([]byte{})
	// One of every other record type, for the body walkers.
	rest := appendFrame(nil, appendObs(binary.AppendVarint([]byte{recBucket}, 3), obsFor(3, 2)))
	rest = appendFrame(rest, append([]byte{recReport, 0, 0, 4, 1}, "{}\n"...))
	rest = appendFrame(rest, appendCells([]byte{recAggBatch}, []ingest.AggCell{{Agent: 1, Seq: 2, Bucket: 4, Samples: 9, MeanRTT: 55.25, Clients: 2}}))
	f.Add(rest)
	f.Add(appendFrame(nil, []byte{0x02, 0, 1, 0}))                              // version 1's snapshot record: now an unknown type
	withFlush := appendFrame(append([]byte(nil), rest...), []byte{0x08, 8, 10}) // version 2's agg-flush record: likewise
	f.Add(appendFrame(withFlush, binary.AppendVarint([]byte{recSeal}, 9)))
	if recs, valid := scanRecords(withFlush); len(recs) != 3 || valid != int64(len(rest)) {
		f.Fatalf("scan accepted %d records / %d bytes of a log with a kind-0x08 record after %d bytes: the unknown kind must stop it", len(recs), valid, len(rest))
	}
	// A framed, CRC-valid batch whose body claims observations it does not
	// hold, between good frames: bodies decode in parallel, and the prefix
	// must still end at the first one that fails, whatever decodes after it.
	badBody := appendFrame(append([]byte(nil), valid...), []byte{recBatch, 5})
	badBody = appendFrame(badBody, binary.AppendVarint([]byte{recSeal}, 9))
	badBody = appendFrame(badBody, appendObs([]byte{recBatch}, obsFor(3, 2)))
	f.Add(badBody)
	if recs, n := scanRecords(badBody); len(recs) != 3 || n != int64(len(valid)) {
		f.Fatalf("scan accepted %d records / %d bytes of a log with an undecodable body after %d bytes: the bad body must stop it", len(recs), n, len(valid))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := scanRecords(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("truncation offset %d out of range [0, %d]", valid, len(data))
		}
		// Prefix consistency: re-encoding the accepted records must
		// reproduce the consumed bytes exactly.
		var re []byte
		for _, r := range recs {
			payload := make([]byte, 0, 1+len(r.body))
			payload = append(payload, r.typ)
			payload = append(payload, r.body...)
			re = appendFrame(re, payload)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("accepted records re-encode to %d bytes != consumed %d", len(re), valid)
		}
		fr := newFrameReader(bytes.NewReader(data), int64(len(data)))
		for i := 0; ; i++ {
			frame, typ, _, err := fr.next()
			if err != nil {
				if wantEOF := valid == int64(len(data)); (err == io.EOF) != wantEOF || (err != io.EOF && err != errBadFrame) {
					t.Fatalf("streaming scanner ended with %v at %d; scanRecords accepted %d of %d bytes", err, fr.off, valid, len(data))
				}
				if i != len(recs) || fr.off != valid {
					t.Fatalf("streaming scanner accepted %d frames / %d bytes, scanRecords %d / %d", i, fr.off, len(recs), valid)
				}
				break
			}
			if i >= len(recs) {
				t.Fatalf("streaming scanner accepted frame %d past scanRecords' %d", i, len(recs))
			}
			if typ != recs[i].typ || !bytes.Equal(frame[frameHeader+1:], recs[i].body) {
				t.Fatalf("frame %d: streaming scanner and scanRecords disagree on the record", i)
			}
		}
		// Interpretation must not panic either (decodeBody already ran in
		// scanRecords; fold the records as recovery would).
		rec := &Recovery{MaxSeal: -1}
		_, _ = interpret(rec, recs, "m")
	})
}
