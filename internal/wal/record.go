// Package wal implements the write-ahead log and crash recovery for the
// engine, including the entanglement-aware recovery rule from §4 of the
// paper ("Persistence and Recovery"): if transactions entangle and only
// some of them manage to commit before a crash, the whole group must be
// rolled back during recovery.
//
// The log is an append-only file of length-prefixed, CRC-protected records.
// Commit of an entanglement group is a single atomic GroupCommit record
// after the group's redo records, in one append. Legacy logs also carry
// Entangle records; recovery still rolls back a group they name whose
// members did not all commit.
package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// TxID identifies a transaction in the log.
type TxID uint64

// RecordType enumerates log record kinds.
type RecordType uint8

// Log record kinds.
const (
	RecBegin RecordType = iota + 1
	RecInsert
	RecDelete
	RecUpdate
	RecCommit
	RecAbort
	RecGroupCommit
	RecEntangle
	RecCreateTable
	RecCreateIndex
	// Two-phase distributed group commit (sharded deployments). A prepare
	// record parks a participant transaction: it follows the participant's
	// redo records in one append and marks it in-doubt at recovery until a
	// decision record — written by the group coordinator before any
	// commit/abort fan-out — resolves it.
	RecPrepare      // Tx = participant, Group = [group id]
	RecDecideCommit // Group = [group id]
	RecDecideAbort  // Group = [group id]
)

func (rt RecordType) String() string {
	switch rt {
	case RecBegin:
		return "BEGIN"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecGroupCommit:
		return "GROUP-COMMIT"
	case RecEntangle:
		return "ENTANGLE"
	case RecCreateTable:
		return "CREATE-TABLE"
	case RecCreateIndex:
		return "CREATE-INDEX"
	case RecPrepare:
		return "PREPARE"
	case RecDecideCommit:
		return "DECIDE-COMMIT"
	case RecDecideAbort:
		return "DECIDE-ABORT"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(rt))
	}
}

// Record is one log entry. Field usage depends on Type:
//
//   - Begin/Abort: Tx.
//   - Commit: Tx, CSN (commit sequence number; 0 for read-only commits).
//   - Insert: Tx, Table, Row (new image), RowID.
//   - Delete: Tx, Table, RowID (and Row, the old image, in legacy logs).
//   - Update: Tx, Table, RowID, Row (new image) (and Old in legacy logs).
//   - GroupCommit: Group (all transaction ids committing atomically), CSN.
//   - Entangle: Tx = entanglement op id, Group = participating transactions.
//   - CreateTable: Table, Schema columns flattened into Row as
//     name/type pairs.
//
// The CSN on commit-class records lets recovery rebuild the version order
// of the MVCC store exactly as the live system produced it, and reseed the
// commit clock past the highest recovered CSN.
type Record struct {
	Type  RecordType
	Tx    TxID
	Table string
	RowID int64
	Row   types.Tuple
	Old   types.Tuple
	Group []TxID
	CSN   uint64
}

// encode appends the record payload (without framing) to buf.
func (r *Record) encode(buf []byte) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, uint64(r.Tx))
	buf = binary.AppendUvarint(buf, uint64(len(r.Table)))
	buf = append(buf, r.Table...)
	buf = binary.AppendVarint(buf, r.RowID)
	buf = types.EncodeTuple(buf, r.Row)
	buf = types.EncodeTuple(buf, r.Old)
	buf = binary.AppendUvarint(buf, uint64(len(r.Group)))
	for _, id := range r.Group {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	buf = binary.AppendUvarint(buf, r.CSN)
	return buf
}

// decodeRecord parses one record payload.
func decodeRecord(buf []byte) (*Record, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("wal: empty record")
	}
	r := &Record{Type: RecordType(buf[0])}
	pos := 1
	tx, w := binary.Uvarint(buf[pos:])
	if w <= 0 {
		return nil, fmt.Errorf("wal: bad tx id")
	}
	pos += w
	r.Tx = TxID(tx)
	n, w := binary.Uvarint(buf[pos:])
	if w <= 0 || uint64(len(buf)-pos-w) < n {
		return nil, fmt.Errorf("wal: bad table name")
	}
	pos += w
	r.Table = string(buf[pos : pos+int(n)])
	pos += int(n)
	rowID, w := binary.Varint(buf[pos:])
	if w <= 0 {
		return nil, fmt.Errorf("wal: bad row id")
	}
	pos += w
	r.RowID = rowID
	row, used, err := types.DecodeTuple(buf[pos:])
	if err != nil {
		return nil, fmt.Errorf("wal: row image: %w", err)
	}
	pos += used
	if len(row) > 0 {
		r.Row = row
	}
	old, used, err := types.DecodeTuple(buf[pos:])
	if err != nil {
		return nil, fmt.Errorf("wal: old image: %w", err)
	}
	pos += used
	if len(old) > 0 {
		r.Old = old
	}
	gn, w := binary.Uvarint(buf[pos:])
	if w <= 0 {
		return nil, fmt.Errorf("wal: bad group length")
	}
	pos += w
	for i := uint64(0); i < gn; i++ {
		id, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("wal: bad group member")
		}
		pos += w
		r.Group = append(r.Group, TxID(id))
	}
	// Trailing CSN field. Absent in logs written before CSN stamping was
	// introduced — treat those records as CSN 0 ("committed since
	// forever"), which is exactly how replay loads pre-MVCC state.
	if pos < len(buf) {
		csn, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("wal: bad csn")
		}
		r.CSN = csn
	}
	return r, nil
}

// schemaToTuple flattens a schema into a tuple of alternating column name
// and kind values, for CreateTable records.
func schemaToTuple(s *types.Schema) types.Tuple {
	out := make(types.Tuple, 0, 2*len(s.Columns))
	for _, c := range s.Columns {
		out = append(out, types.Str(c.Name), types.Int(int64(c.Type)))
	}
	return out
}

// tupleToSchema reverses schemaToTuple.
func tupleToSchema(t types.Tuple) (*types.Schema, error) {
	if len(t)%2 != 0 {
		return nil, fmt.Errorf("wal: malformed schema tuple")
	}
	cols := make([]types.Column, 0, len(t)/2)
	for i := 0; i < len(t); i += 2 {
		cols = append(cols, types.Column{
			Name: t[i].Str64(),
			Type: types.Kind(t[i+1].Int64()),
		})
	}
	return types.NewSchema(cols...), nil
}
