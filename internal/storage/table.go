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
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// RowID identifies a row within a table. RowIDs are dense and never
// reused, so an undo of a delete can reinstate the row under its original
// identity.
type RowID int64

// InvalidRowID is returned by operations that fail to locate a row.
const InvalidRowID RowID = -1

// MaxRowID is the largest row id a table holds. The row directory grows to
// the largest id stored, so InsertAtCSN refuses a larger one, which a
// corrupt snapshot or log record could carry, and an insert never hands
// one out.
const MaxRowID RowID = 1<<31 - 1

// Row layout. A table keeps its version chains in a directory of pages,
// each holding the chains of pageSize consecutive RowIDs: a lookup is two
// index operations, a scan walks the pages in order, and a page whose
// chains are all gone is released, so ids that will never hold a row again
// cost nothing. A new chain's first version, every stored tuple and every
// one-id index bucket are carved out of per-table slabs (see slab), so a
// stored row is no heap object of its own for the garbage collector to
// trace. Stored tuples are immutable and share their chunk with their
// neighbours; a reader holding one pins only that chunk. GC re-carves the
// survivors into fresh slabs and rebuilds the index buckets, which releases
// the chunks of pruned versions.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page holds the version chains of pageSize consecutive RowIDs.
type page struct {
	live   int // non-empty chains
	chains [pageSize][]version
}

// Slab chunks grow by doubling from slabMin to slabMax elements, so a
// small table stays small and a large one costs one heap object per
// slabMax carved elements.
const (
	slabMin = 16
	slabMax = 2048
)

// slab hands out slices carved from shared chunks. Each carved slice is
// capped at its length, so appending to it copies out instead of writing
// into a neighbour. A chunk lives as long as any slice carved from it.
type slab[T any] struct {
	free []T // unused tail of the current chunk
	size int // length of the current chunk
}

// carve returns a zeroed, non-nil slice of n elements.
func (s *slab[T]) carve(n int) []T {
	if len(s.free) < n || s.free == nil {
		s.size = min(max(2*s.size, slabMin), slabMax)
		s.free = make([]T, max(s.size, n))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Table is a heap of row version chains with a fixed schema. All methods
// are safe for concurrent use.
type Table struct {
	name   string
	schema *types.Schema

	mu      sync.RWMutex
	pages   []*page // pages[id>>pageShift]; nil where no chain is stored
	nextID  RowID
	vers    slab[version]     // first versions of new chains
	vals    slab[types.Value] // stored tuples
	indexes []*hashIndex      // declared and undeclared, in creation order
	lastCSN uint64            // newest CSN stamped into this table
	colCSN  []uint64          // per column position: newest CSN whose commit changed it

	scans atomic.Int64 // whole-table reads: scans, index builds, unindexed lookups

	epoch *atomic.Uint64 // the catalog's DDL epoch (Catalog.Epoch); nil outside a catalog
}

// NewTable creates an empty table.
func NewTable(name string, schema *types.Schema) *Table {
	return &Table{
		name:   name,
		schema: schema,
		colCSN: make([]uint64, len(schema.Columns)),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// chain returns id's version chain, oldest first; nil when id has none,
// including any id outside the directory. Caller holds t.mu.
func (t *Table) chain(id RowID) []version {
	p := uint64(id) >> pageShift // a negative id maps past every page
	if p >= uint64(len(t.pages)) || t.pages[p] == nil {
		return nil
	}
	return t.pages[p].chains[id&pageMask]
}

// setChain stores vs as id's chain (id >= 0). An empty vs removes the
// chain, and the page goes once its last chain has. Caller holds t.mu.
func (t *Table) setChain(id RowID, vs []version) {
	p := int(id >> pageShift)
	for len(t.pages) <= p {
		t.pages = append(t.pages, nil)
	}
	pg := t.pages[p]
	if pg == nil {
		if len(vs) == 0 {
			return
		}
		pg = new(page)
		t.pages[p] = pg
	}
	slot := &pg.chains[id&pageMask]
	switch {
	case len(*slot) == 0 && len(vs) > 0:
		pg.live++
	case len(*slot) > 0 && len(vs) == 0:
		if pg.live--; pg.live == 0 {
			t.pages[p] = nil
			return
		}
		vs = nil // an emptied slab slice would pin its chunk
	}
	*slot = vs
}

// eachChain calls fn on every stored chain in RowID order until fn
// returns false. fn may replace or remove the chain it is given. Caller
// holds t.mu.
func (t *Table) eachChain(fn func(id RowID, vs []version) bool) {
	for id, vs := t.nextChain(0, t.nextID); vs != nil && fn(id, vs); id, vs = t.nextChain(id+1, t.nextID) {
	}
}

// nextChain returns the first id in [id, hi) that has a chain, with the
// chain; it returns hi and nil when there is none. Caller holds t.mu.
func (t *Table) nextChain(id, hi RowID) (RowID, []version) {
	for id < hi {
		p := int(id >> pageShift)
		if p >= len(t.pages) {
			break
		}
		pg := t.pages[p]
		if pg == nil {
			id = RowID(p+1) << pageShift
			continue
		}
		for ; id < hi && int(id>>pageShift) == p; id++ {
			if vs := pg.chains[id&pageMask]; len(vs) > 0 {
				return id, vs
			}
		}
	}
	return hi, nil
}

// store copies row into the value slab. Caller holds t.mu (write).
func (t *Table) store(row types.Tuple) types.Tuple {
	s := t.vals.carve(len(row))
	copy(s, row)
	return s
}

// Len returns the number of rows live in the latest committed state.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	t.eachChain(func(_ RowID, vs []version) bool {
		if _, ok := latestVisible(vs, 0); ok {
			n++
		}
		return true
	})
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

// appendVersion installs a version at the chain tail and indexes its key.
// A new chain's first version comes from the version slab; a later append
// copies the capped chain out. Caller holds t.mu; id >= 0.
func (t *Table) appendVersion(id RowID, v version) {
	vs := t.chain(id)
	if len(vs) == 0 {
		vs = t.vers.carve(1)
		vs[0] = v
	} else {
		vs = append(vs, v)
	}
	t.setChain(id, vs)
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
// Stamp or Rollback later resolve. The CSN mutators (InsertAtCSN,
// UpdateCSN, DeleteCSN) write versions committed at a given CSN, which is
// what checkpoint restore and WAL replay want.

// insertVersion validates and stores a new row under a fresh RowID: with
// txID 0 committed at csn, with txID != 0 and uncommittedCSN as that
// transaction's uncommitted version.
func (t *Table) insertVersion(row types.Tuple, txID, csn uint64) (RowID, error) {
	if err := t.schema.Validate(row); err != nil {
		return InvalidRowID, fmt.Errorf("storage: insert into %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	if id > MaxRowID {
		return InvalidRowID, fmt.Errorf("storage: insert into %s: row id %d out of range", t.name, id)
	}
	t.nextID++
	t.appendVersion(id, version{csn: csn, tx: txID, row: t.store(row)})
	return id, nil
}

// InsertTx stores a new row as an uncommitted version of txID.
func (t *Table) InsertTx(txID uint64, row types.Tuple) (RowID, error) {
	return t.insertVersion(row, txID, uncommittedCSN)
}

// InsertAtCSN reinstates a row under a specific RowID as a version
// committed at csn (snapshot restore and WAL replay, which stamps the
// recovered commit order this way). It fails if the RowID is live in the
// latest committed state or lies outside [0, MaxRowID].
func (t *Table) InsertAtCSN(id RowID, row types.Tuple, csn uint64) error {
	if id < 0 || id > MaxRowID {
		return fmt.Errorf("storage: insert-at into %s: row id %d out of range", t.name, id)
	}
	if err := t.schema.Validate(row); err != nil {
		return fmt.Errorf("storage: insert-at into %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, live := latestVisible(t.chain(id), 0); live {
		return fmt.Errorf("storage: %s row %d already exists", t.name, id)
	}
	t.appendVersion(id, version{csn: csn, row: t.store(row)})
	if id >= t.nextID {
		t.nextID = id + 1
	}
	return nil
}

// Reserve moves the next row id a fresh insert takes past id, which an
// in-doubt transaction's insert holds until its decision is known.
func (t *Table) Reserve(id RowID) error {
	if id < 0 || id > MaxRowID {
		return fmt.Errorf("storage: reserve in %s: row id %d out of range", t.name, id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID = max(t.nextID, id+1)
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
	old, live := latestVisible(t.chain(id), txID)
	if !live {
		return nil, fmt.Errorf("storage: %s row %d not found", t.name, id)
	}
	t.appendVersion(id, version{csn: csn, tx: txID, row: t.store(row)})
	return old, nil
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
	old, live := latestVisible(t.chain(id), txID)
	if !live {
		return nil, fmt.Errorf("storage: %s row %d not found", t.name, id)
	}
	t.appendVersion(id, version{csn: csn, tx: txID})
	return old, nil
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
// values change count as changed for ColsCSN. An id with no chain has
// nothing to stamp.
func (t *Table) Stamp(txID uint64, id RowID, csn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vs := t.chain(id)
	if len(vs) == 0 {
		return
	}
	prev, _ := latestVisible(vs, 0) // the committed image before this commit
	// txID's versions are the chain's tail, as it holds the row's X lock
	// from its first write (see AppendTxRows), so the walk stops there and
	// costs the commit's own writes, not the row's history.
	i := len(vs)
	for i > 0 && !vs[i-1].committed() && vs[i-1].tx == txID {
		i--
		vs[i].csn = csn
	}
	last := prev
	if i < len(vs) {
		last = vs[len(vs)-1].row
	}
	t.noteCommit(csn, prev, last)
}

// AppendTxRows appends the images (nil for a tombstone) of txID's
// uncommitted versions of row id, oldest first, not to be modified: the
// chain's tail, as txID holds the row's X lock from its first write.
func (t *Table) AppendTxRows(dst []types.Tuple, txID uint64, id RowID) []types.Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	vs := t.chain(id)
	i := len(vs)
	for i > 0 && !vs[i-1].committed() && vs[i-1].tx == txID {
		i--
	}
	for _, v := range vs[i:] {
		dst = append(dst, v.row)
	}
	return dst
}

// Rollback removes every uncommitted version txID holds on row id (abort).
// Index entries whose keys no longer appear in the chain are dropped; an
// emptied chain disappears entirely.
func (t *Table) Rollback(txID uint64, id RowID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vs := t.chain(id)
	kept := vs[:0]
	var removed []types.Tuple
	for _, v := range vs {
		if !v.committed() && v.tx == txID {
			if v.row != nil {
				removed = append(removed, v.row)
			}
			continue
		}
		kept = append(kept, v)
	}
	if len(kept) == len(vs) {
		return
	}
	t.setChain(id, kept)
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
	row, ok := latestVisible(t.chain(id), reader)
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
	t.eachChain(func(id RowID, vs []version) bool {
		row, ok := resolve(vs)
		return !ok || fn(id, row)
	})
	t.mu.RUnlock()
}

// ScanTx calls fn for every row of reader's current-state view in RowID
// order.
func (t *Table) ScanTx(reader uint64, fn func(id RowID, row types.Tuple) bool) {
	t.scanResolved(func(vs []version) (types.Tuple, bool) { return latestVisible(vs, reader) }, fn)
}

// ScanAsOf calls fn for every row visible to snap in RowID order — the
// lock-free snapshot read that grounding rounds and snapshot-isolated
// transactions use.
func (t *Table) ScanAsOf(snap Snapshot, fn func(id RowID, row types.Tuple) bool) {
	t.scanResolved(func(vs []version) (types.Tuple, bool) { return visibleAt(vs, snap) }, fn)
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
	vs := t.chain(id)
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].committed() {
			return vs[i].csn, true
		}
	}
	return 0, false
}

// keepFrom returns the position of the oldest version in vs that a
// snapshot at or above watermark can still reach: the newest committed
// version at or below the watermark, or the one after it when that is a
// tombstone (absence of a version reads the same as a tombstone).
func keepFrom(vs []version, watermark uint64) int {
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].committed() && vs[i].csn <= watermark {
			if vs[i].row == nil {
				return i + 1
			}
			return i
		}
	}
	return 0
}

// GC prunes versions that no current or future snapshot can reach, given
// that every active snapshot's CSN is at least watermark: for each chain
// everything older than keepFrom is dropped. Uncommitted versions are
// always retained. When it prunes anything it re-carves every surviving
// version and tuple into fresh slabs and rebuilds every index, so the
// pruned versions' chunks, emptied pages and buckets sized for a past peak
// are released. Returns the number of versions pruned.
func (t *Table) GC(watermark uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	pruned := 0
	t.eachChain(func(_ RowID, vs []version) bool {
		pruned += keepFrom(vs, watermark)
		return true
	})
	if pruned == 0 {
		return 0
	}
	t.vers, t.vals = slab[version]{}, slab[types.Value]{}
	t.eachChain(func(id RowID, vs []version) bool {
		var fresh []version
		if vs = vs[keepFrom(vs, watermark):]; len(vs) > 0 {
			fresh = t.vers.carve(len(vs))
			for i, v := range vs {
				if v.row != nil {
					v.row = t.store(v.row)
				}
				fresh[i] = v
			}
		}
		t.setChain(id, fresh)
		return true
	})
	for _, ix := range t.indexes {
		t.fill(ix)
	}
	return pruned
}
