package wal

import (
	"slices"

	"repro/internal/storage"
	"repro/internal/types"
)

// ReadAll returns every intact record of the log segment at path, each a
// copy that outlives the scan.
func ReadAll(path string) ([]*Record, error) {
	var out []*Record
	_, err := Scan(path, func(r *Record) error {
		c := *r
		c.Row, c.Group = nil, slices.Clone(r.Group)
		if len(r.Row) > 0 {
			c.Row = r.Row.Clone()
		}
		out = append(out, &c)
		return nil
	})
	return out, err
}

// Update returns an UPDATE record with the new row image.
func Update(tx TxID, table string, rowID storage.RowID, row types.Tuple) *Record {
	return &Record{Type: RecUpdate, Tx: tx, Table: table, RowID: int64(rowID), Row: row}
}

// Delete returns a DELETE record.
func Delete(tx TxID, table string, rowID storage.RowID) *Record {
	return &Record{Type: RecDelete, Tx: tx, Table: table, RowID: int64(rowID)}
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
