package wal

import (
	"repro/internal/storage"
	"repro/internal/types"
)

// Builders of the records only logs written by earlier versions carry
// (Begin, Entangle, Update before-images, Delete row images), for the tests
// of their recovery, and a checkpoint in one call.

// Begin returns a BEGIN record.
func Begin(tx TxID) *Record { return &Record{Type: RecBegin, Tx: tx} }

// Delete returns a DELETE record with the old row image.
func Delete(tx TxID, table string, rowID storage.RowID, old types.Tuple) *Record {
	return &Record{Type: RecDelete, Tx: tx, Table: table, RowID: int64(rowID), Row: old}
}

// Update returns an UPDATE record with both images.
func Update(tx TxID, table string, rowID storage.RowID, old, new types.Tuple) *Record {
	return &Record{Type: RecUpdate, Tx: tx, Table: table, RowID: int64(rowID), Old: old, Row: new}
}

// Entangle returns a record noting that the transactions in group
// participated in entanglement operation op.
func Entangle(op TxID, group []TxID) *Record {
	return &Record{Type: RecEntangle, Tx: op, Group: group}
}

// Checkpoint switches l to a new segment and seals it with a snapshot of
// cat as of csn, the two steps txn.Manager.Checkpoint takes with commits
// running between them.
func Checkpoint(l *Log, cat *storage.Catalog, csn uint64) error {
	seg, err := l.Switch()
	if err != nil {
		return err
	}
	return l.Seal(seg, cat, csn)
}
