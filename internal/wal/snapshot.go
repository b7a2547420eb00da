package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/storage"
	"repro/internal/types"
)

// Checkpointing: a checkpoint writes a full snapshot of the catalog to a
// sidecar file and truncates the log, bounding recovery time. The snapshot
// must be taken at a quiescent point — no in-flight transactions — which
// the transaction manager enforces (txn.Manager.Quiesced): a commit racing
// the snapshot scan would tear it (table A pre-commit, table B
// post-commit) while the truncate erased the log records that could have
// repaired it.
//
// Snapshot file format (v2):
//
//	crc32(body) | "ESNP" version | uvarint CSN | uvarint #tables | tables
//
// per table:
//
//	uvarint len(name) | name | schema tuple | uint64 LE #rows | rows
//
// The commit-clock CSN in the header is load-bearing: after a checkpoint
// truncates the log, recovery sees no commit records, so without the
// header the clock would restart at 0 and reuse sequence numbers that
// partition fingerprints and snapshot visibility already depend on.
// RecoverAll seeds the clock from max(snapshot CSN, log MaxCSN). The row
// count is a fixed-width placeholder patched after one encoding scan —
// the former two-scan count could disagree with the encoding scan under a
// racing writer, corrupting the file.

// snapshot header magic + format version.
var snapMagic = [5]byte{'E', 'S', 'N', 'P', 2}

// SnapshotPath returns the sidecar snapshot path for a log path.
func SnapshotPath(logPath string) string { return logPath + ".snap" }

// WriteSnapshot serializes every table in cat to the snapshot file for
// logPath, atomically (write temp + rename), recording csn — the commit
// clock the snapshot is consistent at — in the header. The caller must
// guarantee quiescence.
func WriteSnapshot(logPath string, cat *storage.Catalog, csn uint64) error {
	var buf []byte
	buf = append(buf, snapMagic[:]...)
	buf = binary.AppendUvarint(buf, csn)
	names := cat.Names()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		tbl, err := cat.Get(name)
		if err != nil {
			return err
		}
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = types.EncodeTuple(buf, schemaToTuple(tbl.Schema()))
		// One scan: reserve a fixed-width count and patch it once the rows
		// are encoded.
		cntOff := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		var nRows uint64
		tbl.Scan(func(id storage.RowID, row types.Tuple) bool {
			buf = binary.AppendVarint(buf, int64(id))
			buf = types.EncodeTuple(buf, row)
			nRows++
			return true
		})
		binary.LittleEndian.PutUint64(buf[cntOff:cntOff+8], nRows)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	out := append(crc[:], buf...)
	tmp := SnapshotPath(logPath) + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return os.Rename(tmp, SnapshotPath(logPath))
}

// LoadSnapshot restores tables from the snapshot file into cat and returns
// the commit-clock CSN recorded at checkpoint time. Missing snapshot is
// not an error (ok=false). Restored rows are stamped committed at the
// snapshot CSN, so version order and each table's commit CSNs (ColsCSN)
// survive the restart.
func LoadSnapshot(logPath string, cat *storage.Catalog) (csn uint64, ok bool, err error) {
	data, err := os.ReadFile(SnapshotPath(logPath))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("wal: snapshot: %w", err)
	}
	if len(data) < 4 {
		return 0, false, fmt.Errorf("wal: snapshot too short")
	}
	want := binary.LittleEndian.Uint32(data[:4])
	body := data[4:]
	if crc32.ChecksumIEEE(body) != want {
		return 0, false, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	v1 := len(body) < len(snapMagic) || [5]byte(body[:5]) != snapMagic
	pos := 0
	var snapCSN uint64
	if !v1 {
		pos = len(snapMagic)
		var w int
		snapCSN, w = binary.Uvarint(body[pos:])
		if w <= 0 {
			return 0, false, fmt.Errorf("wal: snapshot malformed CSN")
		}
		pos += w
	}
	// v1 files (pre-CSN format: no magic, uvarint row counts) are still
	// readable so a database checkpointed by the previous version opens;
	// they carry no clock, so recovery falls back to the log's MaxCSN.
	nTables, w := binary.Uvarint(body[pos:])
	if w <= 0 {
		return 0, false, fmt.Errorf("wal: snapshot malformed")
	}
	pos += w
	for t := uint64(0); t < nTables; t++ {
		n, w := binary.Uvarint(body[pos:])
		if w <= 0 || uint64(len(body)-pos-w) < n {
			return 0, false, fmt.Errorf("wal: snapshot malformed table name")
		}
		pos += w
		name := string(body[pos : pos+int(n)])
		pos += int(n)
		schemaTuple, used, err := types.DecodeTuple(body[pos:])
		if err != nil {
			return 0, false, err
		}
		pos += used
		schema, err := tupleToSchema(schemaTuple)
		if err != nil {
			return 0, false, err
		}
		var tbl *storage.Table
		if cat.Has(name) {
			tbl, _ = cat.Get(name)
			tbl.Truncate()
		} else {
			tbl, err = cat.Create(name, schema)
			if err != nil {
				return 0, false, err
			}
		}
		var nRows uint64
		if v1 {
			n, w := binary.Uvarint(body[pos:])
			if w <= 0 {
				return 0, false, fmt.Errorf("wal: snapshot malformed row count")
			}
			nRows, pos = n, pos+w
		} else {
			if len(body)-pos < 8 {
				return 0, false, fmt.Errorf("wal: snapshot malformed row count")
			}
			nRows = binary.LittleEndian.Uint64(body[pos : pos+8])
			pos += 8
		}
		for r := uint64(0); r < nRows; r++ {
			id, w := binary.Varint(body[pos:])
			if w <= 0 {
				return 0, false, fmt.Errorf("wal: snapshot malformed row id")
			}
			pos += w
			row, used, err := types.DecodeTuple(body[pos:])
			if err != nil {
				return 0, false, err
			}
			pos += used
			if err := tbl.InsertAtCSN(storage.RowID(id), row, snapCSN); err != nil {
				return 0, false, err
			}
		}
	}
	return snapCSN, true, nil
}

// Checkpoint writes a snapshot of cat — consistent at commit clock csn —
// and truncates the log. Snapshots carry rows but not indexes, so index
// DDL is re-appended to the fresh log for replay. Must be called at a
// quiescent point: no in-flight transactions and no commit that could land
// between the snapshot scan and the truncate (txn.Manager.Quiesced
// provides exactly this).
func Checkpoint(l *Log, cat *storage.Catalog, csn uint64) error {
	if err := WriteSnapshot(l.Path(), cat, csn); err != nil {
		return err
	}
	if err := l.Truncate(); err != nil {
		return err
	}
	for _, name := range cat.Names() {
		tbl, err := cat.Get(name)
		if err != nil {
			return err
		}
		for _, ix := range tbl.Indexes() {
			if err := l.Append(CreateIndex(tbl.Name(), ix.Name, ix.Columns)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RecoverAll restores from snapshot (if any) then replays the log. The
// returned MaxCSN — the value the commit clock must restart past — is the
// maximum of the snapshot's checkpoint CSN and the highest CSN replayed
// from the log, so a checkpoint directly before the crash (empty log) can
// never rewind the clock into sequence numbers already handed out.
func RecoverAll(logPath string, cat *storage.Catalog) (*RecoveryStats, error) {
	snapCSN, _, err := LoadSnapshot(logPath, cat)
	if err != nil {
		return nil, err
	}
	stats, err := Recover(logPath, cat)
	if err != nil {
		return nil, err
	}
	if snapCSN > stats.MaxCSN {
		stats.MaxCSN = snapCSN
	}
	stats.SnapshotCSN = snapCSN
	return stats, nil
}
