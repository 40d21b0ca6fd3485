package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

// Checkpoint files (checkpoint-%010d.ckpt, numbered by their Reads) sit
// beside the segments. Each holds the daemon's folded state at one point
// of the history, so that recovery reads only the history after it:
//
//	"BLAMECKP" | version | reads | bucket | reports | keep | seam | body | CRC-32C
//
// with the integers as varints and the CRC, little-endian, over everything
// before it. Cut starts the checkpoint's seam, the history segment whose
// base is its position, and WriteCheckpoint writes the file in place,
// without fsync: its CRC and its seam decide at open whether it is used,
// and compaction fsyncs the kept ones before it unlinks the history
// before them.
const (
	ckptMagic   = "BLAMECKP"
	ckptVersion = 2
	ckptPrefix  = "checkpoint-"
	ckptSuffix  = ".ckpt"
	// ckptKeep is how many checkpoints a directory keeps: the newest, and
	// one to fall back on should it be torn.
	ckptKeep = 2
)

// Checkpoint is where in the history a checkpoint was cut and, once read,
// the state it holds.
type Checkpoint struct {
	// Reads is how many bucket records the history held, and Bucket the
	// last one's bucket.
	Reads  int
	Bucket netmodel.Bucket
	// Reports is how many report records the reports family held, and Keep
	// the index of the first one the body names: the reports before it
	// are not needed to restore it.
	Reports int
	Keep    int
	// Body is the state the daemon encoded. Open hands it to
	// Config.Restore; it is not kept past that.
	Body []byte

	// seam is the history segment Cut started at the checkpoint.
	seam uint64
}

// ckptFile is a kept checkpoint as compaction judges by it: its position,
// its seam and the first report it needs. seam is 0 until the file has
// been read (a checkpoint an earlier process wrote and this one did not
// restore).
type ckptFile struct {
	reads int
	seam  uint64
	keep  int
}

func ckptName(reads int) string { return fmt.Sprintf("%s%010d%s", ckptPrefix, reads, ckptSuffix) }

// ckptSeqs lists the checkpoint files' numbers among entries, in order.
func ckptSeqs(entries []os.DirEntry) []int {
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		if seq, err := strconv.Atoi(name[len(ckptPrefix) : len(name)-len(ckptSuffix)]); err == nil && seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// EncodeCheckpoint writes a checkpoint's bytes to w: the header with pos,
// the body body encodes, and the CRC. It returns the bytes written.
func EncodeCheckpoint(w io.Writer, pos Checkpoint, body func(*ckpt.Encoder) error) (int64, error) {
	e := ckpt.NewEncoder(w)
	e.Raw([]byte(ckptMagic))
	e.Len(ckptVersion)
	e.Len(pos.Reads)
	e.Int(int(pos.Bucket))
	e.Len(pos.Reports)
	e.Len(pos.Keep)
	e.Uvarint(pos.seam)
	if err := body(e); err != nil {
		return 0, err
	}
	n, crc, err := e.Flush()
	if err == nil {
		_, err = w.Write(binary.LittleEndian.AppendUint32(nil, crc))
	}
	return n + 4, err
}

// DecodeCheckpoint checks a checkpoint's bytes — magic, version, CRC,
// header — and returns its position with the body, which aliases data.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return Checkpoint{}, errors.New("not a checkpoint")
	}
	payload := data[:len(data)-4]
	if crc32.Checksum(payload, ckpt.Table) != binary.LittleEndian.Uint32(data[len(payload):]) {
		return Checkpoint{}, errors.New("checksum mismatch: torn or corrupt")
	}
	d := ckpt.NewDecoder(payload[len(ckptMagic):])
	if v := d.Uvarint(); d.Err() == nil && v != ckptVersion {
		return Checkpoint{}, fmt.Errorf("format version %d, this build reads %d", v, ckptVersion)
	}
	ck := Checkpoint{Reads: d.Bound(math.MaxInt32), Bucket: netmodel.Bucket(d.Int()), Reports: d.Bound(math.MaxInt32)}
	ck.Keep = d.Bound(ck.Reports)
	ck.seam = d.Uvarint()
	if d.Err() == nil && ck.Reads < 1 {
		d.Failf("checkpoint before any read")
	}
	if err := d.Err(); err != nil {
		return Checkpoint{}, err
	}
	ck.Body = d.Raw(d.Left())
	return ck, nil
}

// readCheckpoint reads and decodes the checkpoint file numbered reads.
func readCheckpoint(dir string, reads int) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptName(reads)))
	if err != nil {
		return nil, err
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if ck.Reads != reads {
		return nil, fmt.Errorf("position %d under another name", ck.Reads)
	}
	return &ck, nil
}

// Cut starts the history segment a checkpoint at pos will be restored
// from, its seam: the active segment is sealed, and the next one opens
// with the log's position as its base. pos must be that position — its
// reads, the last one's bucket, its reports — and Keep no more than
// Reports. It returns pos with the seam, for WriteCheckpoint.
func (l *Log) Cut(pos Checkpoint) (Checkpoint, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return pos, errors.New("wal: log closed")
	}
	at := l.pos
	if pos.Reads < 1 || pos.Reads != at.reads || pos.Bucket != at.horizon.last || pos.Reports != at.reports || pos.Keep > pos.Reports || pos.Keep < 0 {
		return pos, fmt.Errorf("wal: checkpoint at read %d, bucket %d, report %d: the log is at read %d, bucket %d, report %d",
			pos.Reads, pos.Bucket, pos.Reports, at.reads, at.horizon.last, at.reports)
	}
	if err := l.rotateLocked(&l.hist); err != nil {
		return pos, err
	}
	pos.seam = l.hist.seq
	return pos, nil
}

// WriteCheckpoint writes a checkpoint cut at pos, as Cut returned it,
// with the body body encodes, and unlinks the directory's older
// checkpoints but one. It returns the bytes written. The state is encoded
// straight into the file through the encoder's bounded buffer; a failed
// write leaves no file. No bucket or report record may be appended
// between the Cut and the write (seals may).
func (l *Log) WriteCheckpoint(pos Checkpoint, body func(*ckpt.Encoder) error) (int64, error) {
	l.mu.Lock()
	moved := pos.seam == 0 || l.pos.reads != pos.Reads || l.pos.reports != pos.Reports
	l.mu.Unlock()
	if moved {
		return 0, fmt.Errorf("wal: checkpoint at read %d, report %d was not cut where the log is", pos.Reads, pos.Reports)
	}
	path := filepath.Join(l.dir, ckptName(pos.Reads))
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	n, err := EncodeCheckpoint(f, pos, body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.mu.Lock()
	l.ckpts = slices.DeleteFunc(l.ckpts, func(c ckptFile) bool { return c.reads == pos.Reads })
	l.ckpts = append(l.ckpts, ckptFile{reads: pos.Reads, seam: pos.seam, keep: pos.Keep})
	slices.SortFunc(l.ckpts, func(a, b ckptFile) int { return a.reads - b.reads })
	var doomed []ckptFile
	if k := len(l.ckpts) - ckptKeep; k > 0 {
		doomed = slices.Clone(l.ckpts[:k])
		l.ckpts = slices.Delete(l.ckpts, 0, k)
	}
	l.stats.LastCheckpoint = CheckpointPass{Bucket: pos.Bucket, Bytes: n}
	l.mu.Unlock()
	for _, c := range doomed {
		if err := os.Remove(filepath.Join(l.dir, ckptName(c.reads))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return n, fmt.Errorf("wal: %w", err)
		}
	}
	return n, nil
}

// CheckpointPass is one written checkpoint: its bucket and its size.
type CheckpointPass struct {
	Bucket netmodel.Bucket
	Bytes  int64
}
