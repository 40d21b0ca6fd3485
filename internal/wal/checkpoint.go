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
	"time"

	"blameit/internal/ckpt"
	"blameit/internal/netmodel"
)

// Checkpoint files (checkpoint-%010d.ckpt, numbered by their Reads) sit
// beside the segments. Each holds the daemon's folded state at one point
// of the history, so that recovery replays only the history after it:
//
//	"BLAMECKP" | version | reads | bucket | reports | body | CRC-32C
//
// with the integers as varints and the CRC, little-endian, over everything
// before it. A checkpoint only saves time — the history keeps every record
// — so it is written in place, without fsync: its CRC and its position
// decide at open whether it is used.
const (
	ckptMagic   = "BLAMECKP"
	ckptVersion = 1
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
	// Reports is how many report records the history held.
	Reports int
	// Body is the state the daemon encoded. Open hands it to
	// Config.Restore; it is not kept past that.
	Body []byte
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
	if d.Err() == nil && ck.Reads < 1 {
		d.Failf("checkpoint before any read")
	}
	if err := d.Err(); err != nil {
		return Checkpoint{}, err
	}
	ck.Body = d.Raw(d.Left())
	return ck, nil
}

// WriteCheckpoint writes a checkpoint cut at pos, with the body body
// encodes, and unlinks the directory's older checkpoints but one. It
// returns the bytes written. The state is encoded straight into the file
// through the encoder's bounded buffer; a failed write leaves no file.
// pos must stay the history's position while it runs: the caller appends
// no bucket or report record meanwhile (seals may go on).
func (l *Log) WriteCheckpoint(pos Checkpoint, body func(*ckpt.Encoder) error) (int64, error) {
	start := time.Now()
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
	if !slices.Contains(l.ckpts, pos.Reads) {
		l.ckpts = append(l.ckpts, pos.Reads)
		slices.Sort(l.ckpts)
	}
	var doomed []int
	if k := len(l.ckpts) - ckptKeep; k > 0 {
		doomed = slices.Clone(l.ckpts[:k])
		l.ckpts = slices.Delete(l.ckpts, 0, k)
	}
	l.stats.LastCheckpoint = CheckpointPass{Bucket: pos.Bucket, Bytes: n, Duration: time.Since(start)}
	l.mu.Unlock()
	for _, seq := range doomed {
		if err := os.Remove(filepath.Join(l.dir, ckptName(seq))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return n, fmt.Errorf("wal: %w", err)
		}
	}
	return n, nil
}

// CheckpointPass is one written checkpoint: its bucket, its size, and how
// long encoding and writing it took.
type CheckpointPass struct {
	Bucket   netmodel.Bucket
	Bytes    int64
	Duration time.Duration
}

// pickCheckpoint returns the newest of the directory's checkpoints that
// decodes, rejecting (unlinking, and noting in rec) every newer one, and
// reports whether it rejected any. It fails if a rejected one cannot be
// unlinked.
func (l *Log) pickCheckpoint(rec *Recovery) (*Checkpoint, bool, error) {
	changed := false
	for i := len(l.ckpts) - 1; i >= 0; i-- {
		name := ckptName(l.ckpts[i])
		data, err := os.ReadFile(filepath.Join(l.dir, name))
		if err == nil {
			var ck Checkpoint
			if ck, err = DecodeCheckpoint(data); err == nil && ck.Reads == l.ckpts[i] {
				l.ckpts = l.ckpts[:i+1]
				return &ck, changed, nil
			} else if err == nil {
				err = fmt.Errorf("position %d under another name", ck.Reads)
			}
		}
		if err := l.rejectCheckpoint(name, err, rec); err != nil {
			return nil, changed, err
		}
		changed = true
	}
	l.ckpts = nil
	return nil, changed, nil
}

// rejectCheckpoint unlinks a checkpoint recovery will not use, so that no
// later open can take it over a history that has moved on, and notes why.
// A checkpoint that stays is an error: recovery must not go on past it.
// The caller syncs the directory.
func (l *Log) rejectCheckpoint(name string, why error, rec *Recovery) error {
	rec.Rejected = append(rec.Rejected, fmt.Errorf("%s: %w", name, why))
	if err := os.Remove(filepath.Join(l.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: rejected checkpoint: %w", err)
	}
	return nil
}

// reaches reports why the scanned history cannot continue from ck, or
// nil when it can: it must hold the reads ck was cut after, the last of
// them at ck's bucket, and the reports.
func (rec *Recovery) reaches(ck *Checkpoint) error {
	switch {
	case rec.reads < ck.Reads:
		return fmt.Errorf("cut after read %d, the history holds %d", ck.Reads, rec.reads)
	case rec.cutBucket != ck.Bucket:
		return fmt.Errorf("cut after bucket %d, the history's read %d is bucket %d", ck.Bucket, ck.Reads, rec.cutBucket)
	case len(rec.Reports) < ck.Reports:
		return fmt.Errorf("cut after report %d, the history holds %d", ck.Reports, len(rec.Reports))
	}
	return nil
}
