// Package wal implements the write-ahead log and crash recovery for the
// engine. The log is an append-only file of length-prefixed, CRC-protected
// records. A transaction's redo records go out in the same append as its
// Commit, its group's GroupCommit or its Prepare, so §4 of the paper
// ("Persistence and Recovery": no member of an entanglement group survives
// a crash without the others) holds by construction: a torn append loses
// the whole unit, and recovery redoes a transaction exactly when its
// commit record is in the log.
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

// Log record kinds. Kinds 1 (BEGIN) and 8 (ENTANGLE) belonged to logs
// written before redo rode in its commit's append; a log that holds one
// no longer opens.
const (
	recBegin RecordType = iota + 1
	RecInsert
	RecDelete
	RecUpdate
	RecCommit
	RecAbort
	RecGroupCommit
	recEntangle
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
	// A checkpoint starts each new log segment with a header record.
	RecSegment // RowID = segment id, CSN = number of carried records after it
)

var recordNames = [...]string{
	recBegin: "BEGIN", RecInsert: "INSERT", RecDelete: "DELETE", RecUpdate: "UPDATE",
	RecCommit: "COMMIT", RecAbort: "ABORT", RecGroupCommit: "GROUP-COMMIT",
	recEntangle: "ENTANGLE", RecCreateTable: "CREATE-TABLE", RecCreateIndex: "CREATE-INDEX",
	RecPrepare: "PREPARE", RecDecideCommit: "DECIDE-COMMIT", RecDecideAbort: "DECIDE-ABORT",
	RecSegment: "SEGMENT",
}

func (rt RecordType) String() string {
	if int(rt) < len(recordNames) && recordNames[rt] != "" {
		return recordNames[rt]
	}
	return fmt.Sprintf("RecordType(%d)", uint8(rt))
}

// Record is one log entry. Field usage depends on Type:
//
//   - Abort: Tx.
//   - Commit: Tx, CSN (commit sequence number; 0 for read-only commits).
//   - Insert, Update: Tx, Table, RowID, Row (the new image).
//   - Delete: Tx, Table, RowID.
//   - GroupCommit: Group (all transaction ids committing atomically), CSN.
//   - Prepare: Tx, Group = [distributed group id].
//   - DecideCommit, DecideAbort: Group = [distributed group id].
//   - CreateTable: Table, Schema columns flattened into Row as
//     name/type pairs.
//   - CreateIndex: Table, Row = index name then column names.
//   - Segment: RowID = segment id, CSN = number of carried records that
//     follow it.
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
	Group []TxID
	CSN   uint64
}

// encode appends the record payload (without framing) to buf. The byte
// after the row image is the empty slot of a before-image, which logs
// written before redo-only updates filled and every log still carries.
func (r *Record) encode(buf []byte) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, uint64(r.Tx))
	buf = binary.AppendUvarint(buf, uint64(len(r.Table)))
	buf = append(buf, r.Table...)
	buf = binary.AppendVarint(buf, r.RowID)
	buf = types.EncodeTuple(buf, r.Row)
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(r.Group)))
	for _, id := range r.Group {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	buf = binary.AppendUvarint(buf, r.CSN)
	return buf
}

// decode parses one record payload into r, reusing r's row and group
// storage and, when the name repeats, its table name.
func (r *Record) decode(buf []byte) error {
	if len(buf) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	switch r.Type = RecordType(buf[0]); {
	case r.Type == recBegin || r.Type == recEntangle:
		return fmt.Errorf("wal: %v record: an older log format, not read", r.Type)
	case r.Type == 0 || int(r.Type) >= len(recordNames):
		return fmt.Errorf("wal: unknown record kind %d", r.Type)
	}
	d := &reader{b: buf, pos: 1, of: r.Type}
	r.Tx = TxID(d.count("tx id", 0))
	if name := d.bytes("table name"); r.Table != string(name) {
		r.Table = string(name)
	}
	r.RowID = d.varint("row id")
	r.Row = d.tupleInto(r.Row)
	if d.count("before-image", 0) > 0 {
		return fmt.Errorf("wal: %v record: a before-image, not read", r.Type)
	}
	r.Group = r.Group[:0]
	for n := d.count("group length", 1); n > 0 && d.err == nil; n-- {
		r.Group = append(r.Group, TxID(d.count("group member", 0)))
	}
	r.CSN = d.count("csn", 0)
	if d.err == nil && d.pos != len(d.b) {
		d.fail("trailing bytes")
	}
	return d.err
}

// reader walks an encoded record or snapshot body; its first error
// sticks. Every count is checked against the bytes left before anything is
// sized by it.
type reader struct {
	b   []byte
	pos int
	err error
	of  any // what is read, for errors
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wal: %v malformed %s", r.of, what)
	}
}

// count reads a uvarint count of items that take at least min bytes each
// (0: a plain number).
func (r *reader) count(what string, min int) uint64 {
	if r.err != nil {
		return 0
	}
	n, w := binary.Uvarint(r.b[r.pos:])
	if w <= 0 || min > 0 && n > uint64((len(r.b)-r.pos-w)/min) {
		r.fail(what)
		return 0
	}
	r.pos += w
	return n
}

func (r *reader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Varint(r.b[r.pos:])
	if w <= 0 {
		r.fail(what)
		return 0
	}
	r.pos += w
	return v
}

// bytes reads a length-prefixed byte string, which aliases the input.
func (r *reader) bytes(what string) []byte {
	n := int(r.count(what, 1))
	r.pos += n
	return r.b[r.pos-n : r.pos]
}

func (r *reader) str(what string) string { return string(r.bytes(what)) }

// tupleInto reads a tuple into dst's storage (see types.DecodeTupleInto).
func (r *reader) tupleInto(dst types.Tuple) types.Tuple {
	if r.err != nil {
		return dst[:0]
	}
	t, used, err := types.DecodeTupleInto(dst, r.b[r.pos:])
	if err != nil {
		r.err = fmt.Errorf("wal: %v: %w", r.of, err)
	}
	r.pos += used
	return t
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
