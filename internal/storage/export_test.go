package storage

import "repro/internal/types"

// The committed-at-load mutators and latest-state readers the storage
// tests build fixtures with. The engine writes through the transactional
// and CSN mutators and reads through snapshots.

// Insert stores a new row as committed-at-load (CSN 0), returning its
// RowID. Transactions use InsertTx instead.
func (t *Table) Insert(row types.Tuple) (RowID, error) {
	return t.insertVersion(row, 0, 0)
}

// Update replaces the row at id with a committed-at-load version,
// returning the previous image. Transactions use UpdateTx.
func (t *Table) Update(id RowID, row types.Tuple) (types.Tuple, error) {
	return t.updateVersion(id, row, 0, 0)
}

// Delete removes the row at id (committed-at-load tombstone), returning
// the deleted image. Transactions use DeleteTx.
func (t *Table) Delete(id RowID) (types.Tuple, error) {
	return t.deleteVersion(id, 0, 0)
}

// Get returns a copy of the row in the latest committed state.
func (t *Table) Get(id RowID) (types.Tuple, bool) { return t.GetTx(0, id) }

// GetAsOf returns a copy of the row as seen by snap.
func (t *Table) GetAsOf(snap Snapshot, id RowID) (types.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := visibleAt(t.chain(id), snap)
	if !ok {
		return nil, false
	}
	return row.Clone(), true
}

// Scan calls fn for every row of the latest committed state in RowID order.
func (t *Table) Scan(fn func(id RowID, row types.Tuple) bool) { t.ScanTx(0, fn) }

// Lookup returns the RowIDs of rows whose given columns equal key in the
// latest committed state.
func (t *Table) Lookup(columns []string, key types.Tuple) ([]RowID, error) {
	return t.LookupTx(0, columns, key)
}

// VersionCount returns the total number of stored versions (live rows,
// superseded images, tombstones, uncommitted writes).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	t.eachChain(func(_ RowID, vs []version) bool {
		n += len(vs)
		return true
	})
	return n
}
