package storage

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/types"
)

// hashIndex is an equality index over one or more columns of a table, keyed
// by types.Value.Hash folded over those columns. With version chains an
// index entry means "some stored version of this row hashes to this key" —
// entries are added when versions are installed and removed only when
// rollback or GC drops the last version carrying the hash. Every read
// therefore re-checks the visible row with Equal, which filters invisible
// versions and hash collisions alike. The index is maintained while the
// table mutex is held, so it needs no locking of its own.
//
// Each bucket lists its row ids ascending, so reads come out in RowID order
// with no sort. A bucket is only ever appended past its length or replaced,
// never changed in place, so a prefix captured under the read lock
// (ProbeCursor) stays valid after the lock is released. A one-id bucket is
// carved from the index's RowID slab, capped, so its first append copies
// it out; Table.GC rebuilds every bucket map from the surviving versions.
//
// A declared index has a name: CREATE INDEX made it, Indexes lists it,
// checkpoints persist it, and the grounding planner may order joins by it.
// An undeclared index has none: the first ProbeCursor over its column set
// built it. It serves reads exactly like a declared one, but HasIndexForCols,
// HasIndexOn and Indexes do not see it, so neither plans nor the log depend
// on which probes happened to run.
type hashIndex struct {
	name    string // "" while undeclared
	columns []int  // column positions in the table schema
	buckets map[uint64][]RowID
	ids     slab[RowID] // one-id buckets
}

// reset empties the index, dropping its buckets and slab.
func (ix *hashIndex) reset() {
	ix.buckets, ix.ids = make(map[uint64][]RowID), slab[RowID]{}
}

// hash is the bucket key of row.
func (ix *hashIndex) hash(row types.Tuple) uint64 {
	h := types.HashSeed
	for _, c := range ix.columns {
		h = row[c].Hash(h)
	}
	return h
}

// probeHash is the bucket key of the rows whose positions cols equal vals;
// cols spells the index's column set in any order.
func (ix *hashIndex) probeHash(cols []int, vals []types.Value) uint64 {
	h := types.HashSeed
	for _, c := range ix.columns {
		h = vals[slices.Index(cols, c)].Hash(h)
	}
	return h
}

// insert lists id under row's key, at most once however many of the row's
// versions share it. A new bucket is carved from the slab, a new largest id
// appends, and any other goes into a copy.
func (ix *hashIndex) insert(id RowID, row types.Tuple) {
	h := ix.hash(row)
	ids := ix.buckets[h]
	switch n := len(ids); {
	case n == 0:
		ids = ix.ids.carve(1)
		ids[0] = id
		ix.buckets[h] = ids
		return
	case ids[n-1] < id:
		ix.buckets[h] = append(ids, id)
		return
	}
	if i, listed := slices.BinarySearch(ids, id); !listed {
		ix.buckets[h] = slices.Insert(slices.Clip(ids), i, id)
	}
}

// remove unlists id from bucket h, leaving the old array to captured
// prefixes.
func (ix *hashIndex) remove(id RowID, h uint64) {
	ids := ix.buckets[h]
	i, listed := slices.BinarySearch(ids, id)
	switch {
	case !listed:
	case len(ids) == 1:
		delete(ix.buckets, h)
	default:
		ix.buckets[h] = append(ids[:i:i], ids[i+1:]...)
	}
}

// buildIndex returns an index over cols holding every stored version.
// Building reads the whole table, so it counts as one scan. Caller holds
// t.mu (write).
func (t *Table) buildIndex(name string, cols []int) *hashIndex {
	t.scans.Add(1)
	ix := &hashIndex{name: name, columns: cols}
	t.fill(ix)
	return ix
}

// fill resets ix and lists every stored version in it. Caller holds t.mu
// (write).
func (t *Table) fill(ix *hashIndex) {
	ix.reset()
	t.eachChain(func(id RowID, vs []version) bool {
		for _, v := range vs {
			if v.row != nil {
				ix.insert(id, v.row)
			}
		}
		return true
	})
}

// index returns an index whose column set is cols (any order, no
// duplicates), declared or not: a hash index answers an equality probe over
// its column set however the probe spells it. Caller holds t.mu.
func (t *Table) index(cols []int) *hashIndex {
next:
	for _, ix := range t.indexes {
		if len(ix.columns) != len(cols) {
			continue
		}
		for _, c := range ix.columns {
			if !slices.Contains(cols, c) {
				continue next
			}
		}
		return ix
	}
	return nil
}

// positions maps column names to schema positions.
func (t *Table) positions(columns []string) ([]int, error) {
	cols := make([]int, len(columns))
	for i, c := range columns {
		if cols[i] = t.schema.Index(c); cols[i] < 0 {
			return nil, fmt.Errorf("no column %q in table %s", c, t.name)
		}
	}
	return cols, nil
}

// CreateIndex declares an equality index named name over the given columns,
// populated from existing versions. An undeclared index over the same column
// set becomes the declared one instead of being built twice.
func (t *Table) CreateIndex(name string, columns ...string) error {
	if name == "" {
		return fmt.Errorf("storage: index on %s needs a name", t.name)
	}
	cols, err := t.positions(columns)
	if err != nil {
		return fmt.Errorf("storage: index %s: %w", name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if slices.ContainsFunc(t.indexes, func(ix *hashIndex) bool { return ix.name == name }) {
		return fmt.Errorf("storage: index %s already exists on %s", name, t.name)
	}
	switch ix := t.index(cols); {
	case ix == nil || ix.name != "":
		t.indexes = append(t.indexes, t.buildIndex(name, cols))
	case slices.Equal(ix.columns, cols):
		ix.name = name
	default: // the declared column order keys the buckets differently
		*ix = *t.buildIndex(name, cols)
	}
	if t.epoch != nil {
		t.epoch.Add(1)
	}
	return nil
}

// HasIndexOn reports whether a declared equality index covers exactly the
// given columns (in any order).
func (t *Table) HasIndexOn(columns ...string) bool {
	cols, err := t.positions(columns)
	return err == nil && t.HasIndexForCols(cols)
}

// HasIndexForCols reports whether a declared index covers an equality probe
// over the given column positions (any order, no duplicates). The grounding
// planner uses it to order joins, so undeclared indexes never change a plan.
func (t *Table) HasIndexForCols(cols []int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.index(cols)
	return ix != nil && ix.name != ""
}

// IndexInfo describes an index for catalog inspection and WAL replay.
type IndexInfo struct {
	Name    string
	Columns []string
}

// Indexes returns metadata for every declared index on the table, sorted by
// name.
func (t *Table) Indexes() []IndexInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexInfo, 0, len(t.indexes))
	for _, ix := range t.indexes {
		if ix.name == "" {
			continue
		}
		cols := make([]string, len(ix.columns))
		for i, c := range ix.columns {
			cols[i] = t.schema.Columns[c].Name
		}
		out = append(out, IndexInfo{Name: ix.name, Columns: cols})
	}
	slices.SortFunc(out, func(a, b IndexInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// candidates returns, ascending, the chain ids that may hold a row whose
// positions cols equal vals: the bucket of an index over the column set.
// With no such index it returns indexed false and the caller walks the
// directory (a scan). Readers resolve each id and re-check the visible row
// with matches. Caller holds t.mu (read).
func (t *Table) candidates(cols []int, vals []types.Value) (ids []RowID, indexed bool) {
	if ix := t.index(cols); ix != nil {
		return ix.buckets[ix.probeHash(cols, vals)], true
	}
	return nil, false
}

// matches reports whether row's positions cols equal vals.
func matches(row types.Tuple, cols []int, vals []types.Value) bool {
	for i, c := range cols {
		if !row[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}

// lookup returns the ids and rows visible to snap whose positions cols equal
// vals, in RowID order. Rows are shared references into the immutable
// version chains. Caller holds t.mu (read).
func (t *Table) lookup(snap Snapshot, cols []int, vals []types.Value) (ids []RowID, rows []types.Tuple) {
	visit := func(id RowID, vs []version) bool {
		if row, ok := visibleAt(vs, snap); ok && matches(row, cols, vals) {
			ids = append(ids, id)
			rows = append(rows, row)
		}
		return true
	}
	bucket, indexed := t.candidates(cols, vals)
	if !indexed {
		t.scans.Add(1)
		t.eachChain(visit)
		return ids, rows
	}
	for _, id := range bucket {
		visit(id, t.chain(id))
	}
	return ids, rows
}

// lookupNamed is lookup over named columns: the SQL point-read path.
func (t *Table) lookupNamed(snap Snapshot, columns []string, key types.Tuple) ([]RowID, []types.Tuple, error) {
	if len(columns) != len(key) {
		return nil, nil, fmt.Errorf("storage: lookup on %s: %d columns vs %d key values", t.name, len(columns), len(key))
	}
	cols, err := t.positions(columns)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: lookup: %w", err)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids, rows := t.lookup(snap, cols, key)
	return ids, rows, nil
}

// checkProbe validates an equality probe's arguments; op names it in errors.
func (t *Table) checkProbe(op string, cols []int, vals []types.Value) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("storage: %s on %s: %d columns vs %d values", op, t.name, len(cols), len(vals))
	}
	for _, c := range cols {
		if c < 0 || c >= len(t.schema.Columns) {
			return fmt.Errorf("storage: %s on %s: column position %d out of range", op, t.name, c)
		}
	}
	return nil
}

// MatchAsOf returns the rows visible to snap whose column positions cols
// equal vals, cloned, in RowID order. Candidates come from an index over the
// column set when one exists, declared or not, and from every chain
// otherwise, so the result is identical either way.
func (t *Table) MatchAsOf(snap Snapshot, cols []int, vals []types.Value) ([]types.Tuple, error) {
	if err := t.checkProbe("match", cols, vals); err != nil {
		return nil, err
	}
	t.mu.RLock()
	_, rows := t.lookup(snap, cols, vals)
	t.mu.RUnlock()
	for i, row := range rows {
		rows[i] = row.Clone()
	}
	return rows, nil
}

// LookupTx returns the RowIDs of rows whose given columns equal key in
// reader's current-state view.
func (t *Table) LookupTx(reader uint64, columns []string, key types.Tuple) ([]RowID, error) {
	ids, _, err := t.lookupNamed(currentState(reader), columns, key)
	return ids, err
}

// Lookup returns the RowIDs of rows whose given columns equal key in the
// latest committed state.
func (t *Table) Lookup(columns []string, key types.Tuple) ([]RowID, error) {
	return t.LookupTx(0, columns, key)
}

// LookupRowsAsOf returns the RowIDs and the visible rows (cloned) of rows
// whose given columns equal key as seen by snap, resolved in one pass under
// one lock acquisition — the hot path of snapshot-isolated point reads.
func (t *Table) LookupRowsAsOf(snap Snapshot, columns []string, key types.Tuple) ([]RowID, []types.Tuple, error) {
	ids, rows, err := t.lookupNamed(snap, columns, key)
	for i, row := range rows {
		rows[i] = row.Clone()
	}
	return ids, rows, err
}
