package wal

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"blameit/internal/ingest"
	"blameit/internal/netmodel"
)

// appendFrame frames one payload (type byte first) onto buf.
func appendFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(beginFrame(buf, payload[0]), payload[1:]...)
	sealFrame(buf, start)
	return buf
}

// batchBody is a batch record's payload of either feed: type, position,
// then the observations or cells.
func batchBody(after int, obs []byte) []byte {
	return append(binary.AppendUvarint([]byte{obs[0]}, uint64(after)), obs[1:]...)
}

// FuzzWALDecode drives the segment record scanner over arbitrary bytes,
// as each family — history, reports, accepted — reads them. The scanner
// sits on the recovery path of every daemon restart, so it must uphold,
// for ANY input: no panic, no out-of-bounds, a valid offset (the
// truncation point never exceeds the input), and prefix consistency (the
// records it accepts re-encode to exactly the bytes it consumed — what
// recovery replays is what was on disk). A batch the reads have settled
// is only checked, not decoded; the check must accept exactly the bytes
// the decode accepts, record for record, or a settled batch could hide a
// corrupt tail. The fold over the accepted records — base records held to
// the history folded before them, report indices to the one before —
// takes a prefix of them and never panics.
func FuzzWALDecode(f *testing.F) {
	// Seed corpus: a valid accepted segment of both feeds' batches, a torn
	// tail, a bit flip, a zero-length record, and a giant-length record.
	cells := []ingest.AggCell{{Agent: 1, Seq: 2, Bucket: 4, Samples: 9, MeanRTT: 55.25, Clients: 2}}
	meta := appendFrame(nil, append([]byte{recMeta}, "m"...))
	valid := append([]byte(nil), meta...)
	valid = appendFrame(valid, batchBody(0, appendObs([]byte{recBatch}, obsFor(3, 2))))
	valid = appendFrame(valid, batchBody(2, appendCells([]byte{recAggBatch}, cells)))
	valid = appendFrame(valid, batchBody(300, appendObs([]byte{recBatch}, obsFor(9, 1))))
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
	// A history segment: one of each of its record types, the base second.
	hist := append([]byte(nil), meta...)
	hist = appendFrame(hist, appendPosition([]byte{recBase}, origin))
	hist = appendFrame(hist, appendObs(binary.AppendVarint([]byte{recBucket}, 3), obsFor(3, 2)))
	hist = appendFrame(hist, binary.AppendVarint([]byte{recSeal}, 7))
	hist = appendFrame(hist, binary.AppendUvarint([]byte{recSkip}, 5))
	f.Add(hist)
	// A later history segment, opening at the position the first folds to
	// — and one opening elsewhere.
	at := position{reads: 1, horizon: Horizon{n: 5, reached: 1, last: 3}, maxSeal: 7, reports: 2}
	f.Add(appendFrame(append([]byte(nil), meta...), appendPosition([]byte{recBase}, at)))
	at.reads = 2
	f.Add(appendFrame(append([]byte(nil), meta...), appendPosition([]byte{recBase}, at)))
	// A reports segment: two reports in index order, and one out of it.
	report := func(index, after int, to int64) []byte {
		body := binary.AppendUvarint([]byte{recReport}, uint64(index))
		body = binary.AppendUvarint(body, uint64(after))
		for _, v := range []int64{int64(index), to - 2, to, 0} { // seq, from, to, final
			body = binary.AppendVarint(body, v)
		}
		return append(body, "{}\n"...)
	}
	reports := appendFrame(append([]byte(nil), meta...), report(4, 10, 12))
	reports = appendFrame(reports, report(5, 12, 15))
	f.Add(reports)
	f.Add(appendFrame(append([]byte(nil), reports...), report(7, 13, 18)))
	f.Add(appendFrame(nil, []byte{0x02, 0, 1, 0}))                              // version 1's snapshot record: now an unknown type
	withFlush := appendFrame(append([]byte(nil), hist...), []byte{0x08, 8, 10}) // version 2's agg-flush record: likewise
	f.Add(appendFrame(withFlush, binary.AppendVarint([]byte{recSeal}, 9)))
	if recs, n := scanRecords(withFlush, historyKinds, nil); len(recs) != 5 || n != int64(len(hist)) {
		f.Fatalf("scan accepted %d records / %d bytes of a log with a kind-0x08 record after %d bytes: the unknown kind must stop it", len(recs), n, len(hist))
	}
	// Version 3's batch body, without a position: its count of
	// observations is read as one.
	f.Add(appendFrame(append([]byte(nil), valid[:len(valid)/3]...), appendObs([]byte{recBatch}, obsFor(3, 2))))
	// A family stops at the other's records.
	mixed := append(append([]byte(nil), valid...), hist[len(meta):]...)
	f.Add(mixed)
	if recs, n := scanRecords(mixed, acceptedKinds, nil); len(recs) != 4 || n != int64(len(valid)) {
		f.Fatalf("the accepted family accepted %d records / %d bytes past its own %d", len(recs), n, len(valid))
	}
	// A framed, CRC-valid batch whose body claims observations it does not
	// hold, between good frames: bodies decode in parallel, and the prefix
	// must still end at the first one that fails, whatever decodes after it.
	badBody := appendFrame(append([]byte(nil), valid...), []byte{recBatch, 0, 5})
	badBody = appendFrame(badBody, batchBody(1, appendObs([]byte{recBatch}, obsFor(3, 2))))
	f.Add(badBody)
	if recs, n := scanRecords(badBody, acceptedKinds, nil); len(recs) != 4 || n != int64(len(valid)) {
		f.Fatalf("scan accepted %d records / %d bytes of a log with an undecodable body after %d bytes: the bad body must stop it", len(recs), n, len(valid))
	}

	// settledOdd settles the batches at odd positions, reached by the
	// horizon or not, so both paths run on every input.
	settledOdd := func(after int, _ netmodel.Bucket) bool { return after%2 == 1 }
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range []string{historyKinds, reportKinds, acceptedKinds} {
			recs, valid := scanRecords(data, k, nil)
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
			// Checking without decoding accepts the same prefix, and the
			// records it decodes anyway are the same: here the batches at
			// odd positions are checked.
			checked, n := scanRecords(data, k, settledOdd)
			if len(checked) != len(recs) || n != valid {
				t.Fatalf("with checked records the scan accepted %d records / %d bytes, without %d / %d", len(checked), n, len(recs), valid)
			}
			for i, r := range checked {
				if settledOdd(r.after, r.high) && (r.typ == recBatch || r.typ == recAggBatch) {
					if r.val != nil {
						t.Fatalf("record %d: a settled batch was decoded", i)
					}
					continue
				}
				if !reflect.DeepEqual(r.val, recs[i].val) && !hasNaN(r.val) {
					t.Fatalf("record %d: decoded %+v, without settling %+v", i, r.val, recs[i].val)
				}
			}
			// The fold must not panic either, and takes a prefix: from
			// zero, and from the position a seam would seed.
			for _, seed := range []position{origin, at} {
				rec := &Recovery{MaxSeal: -1}
				rec.seed(seed)
				if n, _ := interpret(rec, recs, "m"); n < 0 || n > len(recs) {
					t.Fatalf("the fold took %d of %d records", n, len(recs))
				}
			}
		}
	})
}

// hasNaN reports whether a decoded batch holds a NaN, which DeepEqual
// never finds equal to itself.
func hasNaN(val any) bool {
	b, ok := val.(Batch)
	if !ok {
		return false
	}
	for _, o := range b.Obs {
		if o.MeanRTT != o.MeanRTT {
			return true
		}
	}
	for _, c := range b.Cells {
		if c.MeanRTT != c.MeanRTT {
			return true
		}
	}
	return false
}
