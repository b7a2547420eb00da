package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/storage"
	"repro/internal/types"
)

// Checkpointing (DESIGN "Checkpoints"): a checkpoint writes the catalog as
// of a commit sequence number c to a sidecar snapshot and retires the log
// before it, while commits go on. No gate is needed: commit records are
// appended under the transaction manager's commit mutex in CSN order, so
// with that mutex held the log ends at c's commit record. Switch, under
// that mutex, renames the live file to path.seg<id> and puts a new segment
// at path, which opens with a header record and copies of the undecided
// prepares and of every decision. Seal then writes the snapshot as of c,
// naming the new segment, fsyncs and renames it into place, and only then
// deletes the older segments. Recovery loads the snapshot and replays the
// segments from the one it names; a segment whose predecessor is replayed
// too skips its copies. So a crash leaves the old snapshot with every
// segment since, or the new snapshot with the new segment (plus a retired
// one, ignored); between Switch's two renames, path.next is the live file.
//
// Snapshot format v3:
//
//	crc32(body) | "ESNP" 3 | uvarint CSN | uvarint segment | uvarint #tables |
//	per table: string name | schema tuple | uvarint #indexes |
//	  per index: string name | uvarint #columns | string column... |
//	  uint64 LE #rows | (varint row id, row tuple)...
//
// Strings are uvarint-length-prefixed. v2 lacks the segment and the
// indexes (its log repeated the index DDL); v1 also the magic and the CSN,
// and counts its rows with a uvarint. Both still load. The CSN is
// load-bearing: a retired segment takes its commit records along, so
// RecoverAll seeds the clock from max(snapshot CSN, log MaxCSN).

var snapMagic = [5]byte{'E', 'S', 'N', 'P', 3}

// SnapshotPath returns the sidecar snapshot path for a log path.
func SnapshotPath(logPath string) string { return logPath + ".snap" }

func segmentPath(logPath string, id uint64) string {
	return logPath + ".seg" + strconv.FormatUint(id, 10)
}

func nextPath(logPath string) string { return logPath + ".next" }

// segmentStart is the header record of segment id, which carried copies
// follow.
func segmentStart(id uint64, carried int) *Record {
	return &Record{Type: RecSegment, RowID: int64(id), CSN: uint64(carried)}
}

// Switch starts a new log segment and returns its id. The caller stops
// commits across the call, so the CSN it read is the last one in the old
// segment, and runs one checkpoint at a time. A failure before the final
// rename leaves the live segment as it was; one after it latches the log.
func (l *Log) Switch() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("wal: log closed")
	}
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log failed: %w", l.failed)
	}
	seg := l.seg + 1
	txs := make([]TxID, 0, len(l.open))
	for tx := range l.open {
		txs = append(txs, tx)
	}
	slices.Sort(txs)
	n := len(l.committed) + len(l.aborted)
	for _, tx := range txs {
		n += l.open[tx].n
	}
	buf := frameInto(nil, segmentStart(seg, n))
	for _, tx := range txs {
		buf = append(buf, l.open[tx].frames...)
	}
	for _, g := range l.committed {
		buf = frameInto(buf, DecideCommit(g))
	}
	for _, g := range l.aborted {
		buf = frameInto(buf, DecideAbort(g))
	}
	next := nextPath(l.path)
	f, err := l.writeFile(next, os.O_RDWR|os.O_APPEND, buf)
	if err == nil {
		if err = l.fileOp(func() error { return os.Rename(l.path, segmentPath(l.path, l.seg)) }); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("wal: switch: %w", err)
	}
	if err := l.fileOp(func() error { return os.Rename(next, l.path) }); err != nil {
		f.Close()
		l.failed = err
		return 0, fmt.Errorf("wal: switch: %w", err)
	}
	_ = l.f.Close() // no append reaches the old segment again; recovery reads it by name
	l.f, l.seg = f, seg
	return seg, l.syncDir()
}

// Seal writes the snapshot of cat as of csn, naming segment seg as the
// first to replay, and once it is durable deletes the segments before seg.
func (l *Log) Seal(seg uint64, cat *storage.Catalog, csn uint64) error {
	snap := SnapshotPath(l.path)
	f, err := l.writeFile(snap+".tmp", os.O_WRONLY, encodeSnapshot(cat, csn, seg))
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		err = l.fileOp(func() error { return os.Rename(snap+".tmp", snap) })
	}
	if err == nil {
		err = l.syncDir()
	}
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	retired, err := retiredSegments(l.path)
	for _, id := range retired {
		if err == nil && id < seg {
			err = l.fileOp(func() error { return os.Remove(segmentPath(l.path, id)) })
		}
	}
	return err
}

// fileOp runs one file operation of a checkpoint through the
// "wal.checkpoint" failpoint, which fails it undone.
func (l *Log) fileOp(op func() error) error {
	if err := l.ptCheckpoint.Fire(); err != nil {
		return err
	}
	return op()
}

// writeFile creates (or empties) name, opened with flag, then writes and
// fsyncs b: three file operations. The file stays open on success.
func (l *Log) writeFile(name string, flag int, b []byte) (f *os.File, err error) {
	err = l.fileOp(func() error {
		f, err = os.OpenFile(name, flag|os.O_CREATE|os.O_TRUNC, 0o644)
		return err
	})
	if err == nil {
		err = l.fileOp(func() error { _, err := f.Write(b); return err })
	}
	if err == nil {
		err = l.fileOp(f.Sync)
	}
	if err != nil && f != nil {
		f.Close()
	}
	return f, err
}

// syncDir makes the renames and removals in the log's directory durable.
func (l *Log) syncDir() error {
	return l.fileOp(func() error {
		d, err := os.Open(filepath.Dir(l.path))
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	})
}

// retiredSegments lists the ids of the log's retired segments, ascending.
func retiredSegments(logPath string) ([]uint64, error) {
	entries, err := os.ReadDir(filepath.Dir(logPath))
	if err != nil {
		return nil, fmt.Errorf("wal: segments: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name(), filepath.Base(logPath)+".seg"); ok {
			if id, err := strconv.ParseUint(rest, 10, 64); err == nil {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	return ids, nil
}

// errStop ends a Scan early.
var errStop = errors.New("wal: scan stopped")

// segmentID returns the id in the header record of the segment at path. A
// segment that does not start with one — empty, or written before the
// log's first checkpoint — is segment 0.
func segmentID(path string) (id uint64, err error) {
	_, err = Scan(path, func(r *Record) error {
		if r.Type == RecSegment {
			id = uint64(r.RowID)
		}
		return errStop
	})
	if errors.Is(err, errStop) {
		err = nil
	}
	return id, err
}

// encodeSnapshot serializes every table of cat as of csn, with its index
// definitions, naming seg as the first segment to replay. Each table is
// one scan: its row count is reserved and patched after the rows.
func encodeSnapshot(cat *storage.Catalog, csn, seg uint64) []byte {
	buf := append(make([]byte, 4, 4096), snapMagic[:]...) // CRC patched last
	buf = binary.AppendUvarint(buf, csn)
	buf = binary.AppendUvarint(buf, seg)
	names := cat.Names()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		tbl, _ := cat.Get(name)
		buf = types.EncodeTuple(appendString(buf, name), schemaToTuple(tbl.Schema()))
		ixs := tbl.Indexes()
		buf = binary.AppendUvarint(buf, uint64(len(ixs)))
		for _, ix := range ixs {
			buf = binary.AppendUvarint(appendString(buf, ix.Name), uint64(len(ix.Columns)))
			for _, c := range ix.Columns {
				buf = appendString(buf, c)
			}
		}
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		var rows uint64
		tbl.ScanAsOf(storage.Snapshot{CSN: csn}, func(id storage.RowID, row types.Tuple) bool {
			buf = types.EncodeTuple(binary.AppendVarint(buf, int64(id)), row)
			rows++
			return true
		})
		binary.LittleEndian.PutUint64(buf[at:], rows)
	}
	binary.LittleEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	return buf
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// loadSnapshot restores the snapshot for logPath into cat and returns its
// CSN and the first segment to replay. A missing snapshot is not an error
// (ok=false).
func loadSnapshot(logPath string, cat *storage.Catalog) (csn, seg uint64, ok bool, err error) {
	data, err := os.ReadFile(SnapshotPath(logPath))
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	} else if err != nil {
		return 0, 0, false, fmt.Errorf("wal: snapshot: %w", err)
	}
	csn, seg, err = decodeSnapshot(data, cat)
	return csn, seg, err == nil, err
}

// indexCount reads a table's index count; v1 and v2 carry none.
func indexCount(r *reader, version byte) uint64 {
	if version < 3 {
		return 0
	}
	return r.count("index count", 2)
}

// decodeSnapshot restores a snapshot file's tables into cat; with a nil
// cat it only checks them. Rows are stamped committed at the snapshot CSN,
// so version order and each table's commit CSNs (ColsCSN) survive the
// restart. Row ids must ascend, as the encoding scan visits them.
func decodeSnapshot(data []byte, cat *storage.Catalog) (csn, seg uint64, err error) {
	if len(data) < 4 || crc32.ChecksumIEEE(data[4:]) != binary.LittleEndian.Uint32(data) {
		return 0, 0, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	r := &reader{b: data[4:], of: "snapshot"}
	version := byte(1)
	if len(r.b) >= len(snapMagic) && [4]byte(r.b[:4]) == [4]byte(snapMagic[:4]) {
		if version = r.b[4]; version < 2 || version > snapMagic[4] {
			return 0, 0, fmt.Errorf("wal: snapshot version %d unknown", version)
		}
		r.pos = len(snapMagic)
		csn = r.count("CSN", 0)
		if version >= 3 {
			seg = r.count("segment", 0)
		}
	}
	// The smallest table: a one-byte name, an empty schema tuple, and a
	// one-byte count (eight for a fixed-width row count).
	for t := r.count("table count", 4); t > 0 && r.err == nil; t-- {
		name := r.str("table name")
		schema, err := tupleToSchema(r.tupleInto(nil))
		var tbl *storage.Table
		if err != nil {
			r.err = err
		} else if cat != nil && r.err == nil {
			if tbl, err = cat.Create(name, schema); err != nil {
				return 0, 0, fmt.Errorf("wal: snapshot: %w", err)
			}
		}
		for n := indexCount(r, version); n > 0 && r.err == nil; n-- {
			ix := r.str("index name")
			cols := make([]string, r.count("index column count", 1))
			for c := range cols {
				cols[c] = r.str("index column")
			}
			if tbl != nil && r.err == nil {
				if err := tbl.CreateIndex(ix, cols...); err != nil {
					return 0, 0, fmt.Errorf("wal: snapshot: %w", err)
				}
			}
		}
		// A row is a varint id and a tuple, one byte at least each.
		var rows uint64
		if version == 1 {
			rows = r.count("row count", 2)
		} else if r.err == nil && len(r.b)-r.pos >= 8 {
			rows = binary.LittleEndian.Uint64(r.b[r.pos:])
			if r.pos += 8; rows > uint64((len(r.b)-r.pos)/2) {
				r.fail("row count")
			}
		} else {
			r.fail("row count")
		}
		for last := int64(-1); rows > 0 && r.err == nil; rows-- {
			if id := r.varint("row id"); id <= last {
				r.fail("row id")
			} else {
				last = id
			}
			if row := r.tupleInto(nil); tbl != nil && r.err == nil {
				if err := tbl.InsertAtCSN(storage.RowID(last), row, csn); err != nil {
					return 0, 0, fmt.Errorf("wal: snapshot: %w", err)
				}
			}
		}
	}
	if r.err == nil && r.pos != len(r.b) {
		r.fail("trailing bytes")
	}
	return csn, seg, r.err
}
