package wal

import (
	"bytes"
	"encoding/binary"
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

// readBody is a read record's payload: type, bucket, count served.
func readBody(b int64, served uint64) []byte {
	return binary.AppendUvarint(binary.AppendVarint([]byte{recRead}, b), served)
}

// FuzzWALDecode drives the segment record scanner over arbitrary bytes,
// as each family — the journal, with batches of either feed, seals and
// reads interleaved, and the reports — reads them. The scanner sits on the
// recovery path of every daemon restart, so it must uphold, for ANY
// input: no panic, no out-of-bounds, a valid offset (the truncation point
// never exceeds the input), and prefix consistency (the records it
// accepts re-encode to exactly the bytes it consumed — what recovery
// replays is what was on disk). The fold over the accepted records — base
// records held to the journal folded before them, report indices to the
// one before — takes a prefix of them and never panics.
func FuzzWALDecode(f *testing.F) {
	// Seed corpus: a valid journal segment, a torn tail, a bit flip, a
	// zero-length record, and a giant-length record.
	cells := []ingest.AggCell{{Agent: 1, Seq: 2, Bucket: 4, Samples: 9, MeanRTT: 55.25, Clients: 2}}
	meta := appendFrame(nil, append([]byte{recMeta}, "m"...))
	valid := append([]byte(nil), meta...)
	valid = appendFrame(valid, appendPosition([]byte{recBase}, origin))
	valid = appendFrame(valid, appendObs([]byte{recBatch}, obsFor(3, 2)))
	valid = appendFrame(valid, appendCells([]byte{recAggBatch}, cells))
	valid = appendFrame(valid, binary.AppendVarint([]byte{recSeal}, 3))
	valid = appendFrame(valid, readBody(3, 2))
	valid = appendFrame(valid, appendObs([]byte{recBatch}, obsFor(9, 1)))
	valid = appendFrame(valid, readBody(4, 1))
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
	// A later journal segment, opening at the position the first folds to
	// — and one opening elsewhere.
	at := position{reads: 2, last: 4, reports: 2}
	f.Add(appendFrame(append([]byte(nil), meta...), appendPosition([]byte{recBase}, at)))
	at.reads = 3
	f.Add(appendFrame(append([]byte(nil), meta...), appendPosition([]byte{recBase}, at)))
	at.reads = 2
	// A reports segment: two reports in index order, and one out of it.
	report := func(index, after int, to int64) []byte {
		body := binary.AppendUvarint([]byte{recReport}, uint64(index))
		body = binary.AppendUvarint(body, uint64(after))
		for _, v := range []int64{int64(index), to - 2, to, 0} { // seq, from, to, final
			body = binary.AppendVarint(body, v)
		}
		return append(body, "{}\n"...)
	}
	reports := appendFrame(append([]byte(nil), meta...), report(4, 1, 12))
	reports = appendFrame(reports, report(5, 2, 15))
	f.Add(reports)
	f.Add(appendFrame(append([]byte(nil), reports...), report(7, 2, 18)))
	f.Add(appendFrame(nil, []byte{0x02, 0, 1, 0})) // version 1's snapshot record: now an unknown type
	// Retired record types stop the journal: version 2's agg-flush, version
	// 5's bucket stream and skip.
	for _, retired := range [][]byte{{0x08, 8, 10}, appendObs([]byte{0x04, 6}, obsFor(3, 2)), {0x09, 5}} {
		old := appendFrame(append([]byte(nil), valid...), retired)
		f.Add(appendFrame(old, binary.AppendVarint([]byte{recSeal}, 9)))
		if recs, n := scanRecords(old, journalKinds); len(recs) != 8 || n != int64(len(valid)) {
			f.Fatalf("scan accepted %d records / %d bytes of a journal with a kind-%#x record after %d bytes: the retired kind must stop it", len(recs), n, retired[0], len(valid))
		}
	}
	// A family stops at the other's records.
	mixed := append(append([]byte(nil), valid...), reports[len(meta):]...)
	f.Add(mixed)
	if recs, n := scanRecords(mixed, journalKinds); len(recs) != 8 || n != int64(len(valid)) {
		f.Fatalf("the journal accepted %d records / %d bytes past its own %d", len(recs), n, len(valid))
	}
	// A framed, CRC-valid batch whose body claims observations it does not
	// hold, between good frames: bodies decode in parallel, and the prefix
	// must still end at the first one that fails, whatever decodes after it.
	badBody := appendFrame(append([]byte(nil), valid...), []byte{recBatch, 5})
	badBody = appendFrame(badBody, appendObs([]byte{recBatch}, obsFor(3, 2)))
	f.Add(badBody)
	if recs, n := scanRecords(badBody, journalKinds); len(recs) != 8 || n != int64(len(valid)) {
		f.Fatalf("scan accepted %d records / %d bytes of a journal with an undecodable body after %d bytes: the bad body must stop it", len(recs), n, len(valid))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range []string{journalKinds, reportKinds} {
			recs, valid := scanRecords(data, k)
			if valid < 0 || valid > int64(len(data)) {
				t.Fatalf("truncation offset %d out of range [0, %d]", valid, len(data))
			}
			// Prefix consistency: re-encoding the accepted records must
			// reproduce the consumed bytes exactly.
			var re []byte
			for _, r := range recs {
				re = appendFrame(re, append([]byte{r.typ}, r.body...))
			}
			if !bytes.Equal(re, data[:valid]) {
				t.Fatalf("accepted records re-encode to %d bytes != consumed %d", len(re), valid)
			}
			// The fold must not panic either, and takes a prefix: from
			// zero, and from the position a seam would seed.
			for _, seed := range []position{origin, at} {
				rec := &Recovery{at: seed}
				n, _ := interpret(rec, recs, "m")
				if n < 0 || n > len(recs) {
					t.Fatalf("the fold took %d of %d records", n, len(recs))
				}
				if got := reads(rec.Journal); rec.at.reads != seed.reads+got {
					t.Fatalf("the fold counts %d reads from %d, the journal holds %d", rec.at.reads, seed.reads, got)
				}
			}
		}
	})
}
