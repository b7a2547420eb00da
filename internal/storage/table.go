// Package storage implements the in-memory multi-version heap-table store
// underlying the engine: a catalog of tables, per-RowID version chains
// stamped with commit sequence numbers (CSNs), and equality hash indexes.
// It plays the role MySQL/InnoDB plays under the paper's middle-tier
// prototype — with InnoDB-style MVCC instead of a single row image.
//
// Storage is oblivious to concurrency control policy: write serialization
// (X locks) lives in internal/lock + internal/txn, durability in
// internal/wal. What storage provides is the mechanism both read paths
// share:
//
//   - the locked path (Strict 2PL) reads the newest committed version (plus
//     the reader's own uncommitted writes) via the *Tx methods;
//   - the lock-free path reads through a Snapshot via the *AsOf methods —
//     no lock-manager traffic at all.
//
// Writers install uncommitted versions tagged with their transaction id;
// Stamp turns them into committed versions at a CSN, Rollback removes them.
// GC prunes versions no active snapshot can reach.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// RowID identifies a row within a table. RowIDs are never reused, so an
// undo of a delete can reinstate the row under its original identity.
type RowID int64

// InvalidRowID is returned by operations that fail to locate a row.
const InvalidRowID RowID = -1

// Table is a heap of row version chains with a fixed schema. All methods
// are safe for concurrent use.
type Table struct {
	name   string
	schema *types.Schema

	mu       sync.RWMutex
	rows     map[RowID][]version // oldest-first version chains
	nextID   RowID
	indexes  []*hashIndex // declared and undeclared, in creation order
	lastCSN  uint64       // newest CSN stamped into this table
	colCSN   []uint64     // per column position: newest CSN whose commit changed it
	versions int          // live version count (GC accounting)

	// order lists every chain id ascending, so a scan needs no sort. Ids
	// whose chain is gone stay listed (dead counts them) until a compaction.
	// The slice is only ever appended past its length or replaced, never
	// changed in place, so a captured prefix order[:n:n] stays valid.
	order []RowID
	dead  int

	scans atomic.Int64 // whole-table reads: scans, index builds, unindexed lookups
}

// NewTable creates an empty table.
func NewTable(name string, schema *types.Schema) *Table {
	return &Table{
		name:   name,
		schema: schema,
		rows:   make(map[RowID][]version),
		colCSN: make([]uint64, len(schema.Columns)),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Len returns the number of rows live in the latest committed state.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, vs := range t.rows {
		if _, ok := latestVisible(vs, 0); ok {
			n++
		}
	}
	return n
}

// ColsCSN returns the newest commit sequence number whose commit changed
// one of the column positions cols: an update that rewrote some column to a
// different value, or any insert, delete, load or restore, which count as
// changing every column. Nil cols means the whole table: the newest CSN
// stamped into it, whatever the commit changed. A position outside the
// schema counts as the whole table too.
func (t *Table) ColsCSN(cols []int) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if cols == nil {
		return t.lastCSN
	}
	var csn uint64
	for _, c := range cols {
		if c < 0 || c >= len(t.colCSN) {
			return t.lastCSN
		}
		csn = max(csn, t.colCSN[c])
	}
	return csn
}

// noteCommit records a commit at csn that turned row image old into new
// (nil: absent). Columns whose values differ are bumped; an insert or a
// delete bumps every column. Caller holds t.mu.
func (t *Table) noteCommit(csn uint64, old, new types.Tuple) {
	t.lastCSN = max(t.lastCSN, csn)
	for i := range t.colCSN {
		if old == nil || new == nil || old[i] != new[i] {
			t.colCSN[i] = max(t.colCSN[i], csn)
		}
	}
}

// addChain lists a fresh chain's id in t.order. Caller holds t.mu.
func (t *Table) addChain(id RowID) {
	n := len(t.order)
	if n == 0 || t.order[n-1] < id {
		t.order = append(t.order, id) // writes past every captured prefix
		return
	}
	i, listed := slices.BinarySearch(t.order, id)
	if listed {
		t.dead-- // a dead id revived (restore of a row whose chain was pruned)
		return
	}
	// Out of order (restore): the clipped slice has no spare capacity, so
	// Insert allocates and captured prefixes keep the old array.
	t.order = slices.Insert(slices.Clip(t.order), i, id)
}

// dropChain deletes id's emptied chain. Its id stays in t.order until dead
// ids are over half the list; the compaction then builds a new slice.
// Caller holds t.mu.
func (t *Table) dropChain(id RowID) {
	delete(t.rows, id)
	t.dead++
	if t.dead <= len(t.order)/2 {
		return
	}
	live := make([]RowID, 0, len(t.order)-t.dead)
	for _, id := range t.order {
		if _, ok := t.rows[id]; ok {
			live = append(live, id)
		}
	}
	t.order, t.dead = live, 0
}

// VersionCount returns the total number of stored versions (live rows,
// superseded images, tombstones, uncommitted writes).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.versions
}

// appendVersion installs a version at the chain tail and indexes its key.
// Caller holds t.mu.
func (t *Table) appendVersion(id RowID, v version) {
	if len(t.rows[id]) == 0 {
		t.addChain(id)
	}
	t.rows[id] = append(t.rows[id], v)
	t.versions++
	if v.row != nil {
		for _, ix := range t.indexes {
			ix.insert(id, v.row)
		}
	}
	if v.committed() {
		t.noteCommit(v.csn, nil, nil)
	}
}

// --- write path -----------------------------------------------------------
//
// The transactional mutators install uncommitted versions (txID != 0) that
// Stamp or Rollback later resolve. The legacy mutators (Insert, InsertAt,
// Update, Delete) write committed versions at CSN 0 — "committed since
// forever", visible to every snapshot — which is what bulk loaders,
// checkpoint restore, and storage-level tests want.

// insertVersion validates and stores a new row under a fresh RowID. A
// txID of 0 with a real csn is the load/replay path; txID != 0 with
// uncommittedCSN is the transactional path.
func (t *Table) insertVersion(row types.Tuple, txID, csn uint64) (RowID, error) {
	if err := t.schema.Validate(row); err != nil {
		return InvalidRowID, fmt.Errorf("storage: insert into %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.appendVersion(id, version{csn: csn, tx: txID, row: row.Clone()})
	return id, nil
}

// Insert stores a new row as committed-at-load (CSN 0), returning its
// RowID. Transactions use InsertTx instead.
func (t *Table) Insert(row types.Tuple) (RowID, error) {
	return t.insertVersion(row, 0, 0)
}

// InsertTx stores a new row as an uncommitted version of txID.
func (t *Table) InsertTx(txID uint64, row types.Tuple) (RowID, error) {
	return t.insertVersion(row, txID, uncommittedCSN)
}

// InsertAtCSN reinstates a row under a specific RowID as a version
// committed at csn (snapshot restore and WAL replay, which stamps the
// recovered commit order this way). It fails if the RowID is live in the
// latest committed state.
func (t *Table) InsertAtCSN(id RowID, row types.Tuple, csn uint64) error {
	if err := t.schema.Validate(row); err != nil {
		return fmt.Errorf("storage: insert-at into %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, live := latestVisible(t.rows[id], 0); live {
		return fmt.Errorf("storage: %s row %d already exists", t.name, id)
	}
	t.appendVersion(id, version{csn: csn, row: row.Clone()})
	if id >= t.nextID {
		t.nextID = id + 1
	}
	return nil
}

// updateVersion appends a replacement version, returning the previous
// image seen by (txID)'s current-state view.
func (t *Table) updateVersion(id RowID, row types.Tuple, txID, csn uint64) (types.Tuple, error) {
	if err := t.schema.Validate(row); err != nil {
		return nil, fmt.Errorf("storage: update %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, live := latestVisible(t.rows[id], txID)
	if !live {
		return nil, fmt.Errorf("storage: %s row %d not found", t.name, id)
	}
	t.appendVersion(id, version{csn: csn, tx: txID, row: row.Clone()})
	return old, nil
}

// Update replaces the row at id with a committed-at-load version,
// returning the previous image. Transactions use UpdateTx.
func (t *Table) Update(id RowID, row types.Tuple) (types.Tuple, error) {
	return t.updateVersion(id, row, 0, 0)
}

// UpdateTx replaces the row at id with an uncommitted version of txID.
func (t *Table) UpdateTx(txID uint64, id RowID, row types.Tuple) (types.Tuple, error) {
	return t.updateVersion(id, row, txID, uncommittedCSN)
}

// UpdateCSN replaces the row at id with a version committed at csn (WAL
// replay).
func (t *Table) UpdateCSN(id RowID, row types.Tuple, csn uint64) (types.Tuple, error) {
	return t.updateVersion(id, row, 0, csn)
}

// deleteVersion appends a tombstone, returning the deleted image.
func (t *Table) deleteVersion(id RowID, txID, csn uint64) (types.Tuple, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, live := latestVisible(t.rows[id], txID)
	if !live {
		return nil, fmt.Errorf("storage: %s row %d not found", t.name, id)
	}
	t.appendVersion(id, version{csn: csn, tx: txID})
	return old, nil
}

// Delete removes the row at id (committed-at-load tombstone), returning
// the deleted image. Transactions use DeleteTx.
func (t *Table) Delete(id RowID) (types.Tuple, error) {
	return t.deleteVersion(id, 0, 0)
}

// DeleteTx removes the row at id as an uncommitted tombstone of txID.
func (t *Table) DeleteTx(txID uint64, id RowID) (types.Tuple, error) {
	return t.deleteVersion(id, txID, uncommittedCSN)
}

// DeleteCSN removes the row at id with a tombstone committed at csn (WAL
// replay).
func (t *Table) DeleteCSN(id RowID, csn uint64) (types.Tuple, error) {
	return t.deleteVersion(id, 0, csn)
}

// Stamp marks every uncommitted version txID holds on row id as committed
// at csn. The transaction layer calls it once per written row at commit,
// after the commit record is logged. Only the columns whose committed
// values change count as changed for ColsCSN.
func (t *Table) Stamp(txID uint64, id RowID, csn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vs := t.rows[id]
	prev, _ := latestVisible(vs, 0) // the committed image before this commit
	last := prev
	for i := range vs {
		if !vs[i].committed() && vs[i].tx == txID {
			vs[i].csn = csn
			last = vs[i].row
		}
	}
	t.noteCommit(csn, prev, last)
}

// Rollback removes every uncommitted version txID holds on row id (abort).
// Index entries whose keys no longer appear in the chain are dropped; an
// emptied chain disappears entirely.
func (t *Table) Rollback(txID uint64, id RowID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vs := t.rows[id]
	kept := vs[:0]
	var removed []types.Tuple
	for _, v := range vs {
		if !v.committed() && v.tx == txID {
			if v.row != nil {
				removed = append(removed, v.row)
			}
			t.versions--
			continue
		}
		kept = append(kept, v)
	}
	if len(removed) == 0 && len(kept) == len(vs) {
		return
	}
	if len(kept) == 0 {
		t.dropChain(id)
	} else {
		t.rows[id] = kept
	}
	t.unindexOrphans(id, kept, removed)
}

// unindexOrphans drops id from the buckets of removed versions that no
// retained version hashes to. Buckets are keyed by hash, so a kept version
// whose key merely collides with a removed one still needs the entry.
// Caller holds t.mu.
func (t *Table) unindexOrphans(id RowID, kept []version, removed []types.Tuple) {
	for _, ix := range t.indexes {
	removed:
		for _, row := range removed {
			h := ix.hash(row)
			for _, v := range kept {
				if v.row != nil && ix.hash(v.row) == h {
					continue removed
				}
			}
			ix.remove(id, h)
		}
	}
}

// --- read paths -----------------------------------------------------------

// GetTx returns a copy of the row as seen by reader's current-state view:
// the newest committed version, or reader's own uncommitted write. Under
// Strict 2PL the caller's locks make this the serializable read.
func (t *Table) GetTx(reader uint64, id RowID) (types.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := latestVisible(t.rows[id], reader)
	if !ok {
		return nil, false
	}
	return row.Clone(), true
}

// Get returns a copy of the row in the latest committed state.
func (t *Table) Get(id RowID) (types.Tuple, bool) { return t.GetTx(0, id) }

// GetAsOf returns a copy of the row as seen by snap.
func (t *Table) GetAsOf(snap Snapshot, id RowID) (types.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := visibleAt(t.rows[id], snap)
	if !ok {
		return nil, false
	}
	return row.Clone(), true
}

// ScanCount returns the number of whole-table reads this table has served:
// scan cursors and callbacks, index builds, and lookups no index covers.
// The grounding tests use it to assert that an evaluation round with k
// queries over one table reads it once, not k times.
func (t *Table) ScanCount() int64 { return t.scans.Load() }

// scanResolved iterates chains in RowID order, resolving each through
// resolve, and calls fn on live rows. Caller must not retain or mutate the
// tuple; returning false stops the scan. The table lock is held across the
// scan, so fn must not call back into the table.
func (t *Table) scanResolved(resolve func([]version) (types.Tuple, bool), fn func(id RowID, row types.Tuple) bool) {
	t.scans.Add(1)
	t.mu.RLock()
	for _, id := range t.order {
		row, ok := resolve(t.rows[id]) // a dead id's nil chain resolves to nothing
		if !ok {
			continue
		}
		if !fn(id, row) {
			break
		}
	}
	t.mu.RUnlock()
}

// ScanTx calls fn for every row of reader's current-state view in RowID
// order.
func (t *Table) ScanTx(reader uint64, fn func(id RowID, row types.Tuple) bool) {
	t.scanResolved(func(vs []version) (types.Tuple, bool) { return latestVisible(vs, reader) }, fn)
}

// Scan calls fn for every row of the latest committed state in RowID order.
func (t *Table) Scan(fn func(id RowID, row types.Tuple) bool) { t.ScanTx(0, fn) }

// ScanAsOf calls fn for every row visible to snap in RowID order — the
// lock-free snapshot read that grounding rounds and snapshot-isolated
// transactions use.
func (t *Table) ScanAsOf(snap Snapshot, fn func(id RowID, row types.Tuple) bool) {
	t.scanResolved(func(vs []version) (types.Tuple, bool) { return visibleAt(vs, snap) }, fn)
}

// All returns a deterministic snapshot of the latest committed state in
// RowID order.
func (t *Table) All() []types.Tuple {
	var out []types.Tuple
	t.Scan(func(_ RowID, row types.Tuple) bool {
		out = append(out, row.Clone())
		return true
	})
	return out
}

// AllAsOf returns every row visible to snap, cloned, in RowID order.
func (t *Table) AllAsOf(snap Snapshot) []types.Tuple {
	var out []types.Tuple
	t.ScanAsOf(snap, func(_ RowID, row types.Tuple) bool {
		out = append(out, row.Clone())
		return true
	})
	return out
}

// CommittedCSN returns the CSN of the newest committed version of id
// (tombstones included) — the first-committer-wins conflict check: a
// snapshot-isolated writer whose snapshot is older than this CSN lost the
// race.
func (t *Table) CommittedCSN(id RowID) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	vs := t.rows[id]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].committed() {
			return vs[i].csn, true
		}
	}
	return 0, false
}

// Truncate removes all rows and versions (used by recovery before replay).
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = make(map[RowID][]version)
	t.order, t.dead = nil, 0
	t.versions = 0
	for _, ix := range t.indexes {
		clear(ix.buckets)
	}
}

// GC prunes versions that no current or future snapshot can reach, given
// that every active snapshot's CSN is at least watermark: for each chain
// the newest committed version at or below the watermark is the boundary —
// everything older is dropped, and a boundary tombstone is dropped too
// (absence of a version reads the same as a tombstone). Uncommitted
// versions are always retained. Returns the number of versions pruned.
func (t *Table) GC(watermark uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	pruned := 0
	for id, vs := range t.rows {
		boundary := -1
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].committed() && vs[i].csn <= watermark {
				boundary = i
				break
			}
		}
		if boundary < 0 {
			continue
		}
		keepFrom := boundary
		if vs[boundary].row == nil {
			keepFrom = boundary + 1 // boundary tombstone conveys nothing
		}
		if keepFrom == 0 {
			continue
		}
		kept := append([]version(nil), vs[keepFrom:]...)
		var removed []types.Tuple
		for _, v := range vs[:keepFrom] {
			if v.row != nil {
				removed = append(removed, v.row)
			}
		}
		pruned += keepFrom
		t.versions -= keepFrom
		if len(kept) == 0 {
			t.dropChain(id)
		} else {
			t.rows[id] = kept
		}
		t.unindexOrphans(id, kept, removed)
	}
	return pruned
}
