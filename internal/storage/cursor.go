package storage

import (
	"slices"

	"repro/internal/types"
)

// Streaming read path: cursors pull a table's snapshot-visible rows in
// RowID order in caller-paced batches, instead of materializing the whole
// relation the way AllAsOf/MatchAsOf do. A scan cursor captures one id
// bound at open (the table's next RowID) and walks the page directory below
// it; a probe cursor captures its index bucket (no copy, no sort). Each
// resolves visibility per batch under a short read lock, so grounding a
// million-row table holds one batch of row references at a time.
//
// Returned rows alias stored tuples. Stored tuples are immutable: writers
// only append versions, and GC copies survivors into fresh slab chunks
// instead of moving them in place. A returned reference therefore stays
// valid indefinitely, pinning only the slab chunk it was carved from — but
// callers must not mutate it and must copy any value they retain past the
// batch, because the batch buffer itself is reused.
//
// Snapshot stability makes the capture sound: chains created past the id
// bound, restored below it, or listed in a bucket after the capture hold
// only versions invisible to the cursor's snapshot (their CSNs postdate it,
// or they are uncommitted by someone else), and a chain removed after the
// capture (rollback, GC below the snapshot watermark, its page released)
// resolves to "not visible" exactly as a live tombstone would. A cursor
// therefore enumerates precisely the rows ScanAsOf would (filtered, for a
// probe), in the same order, no matter how the pulls interleave with
// concurrent commits.

// ScanCursor streams one table's rows visible to a snapshot, in RowID
// order. Not safe for concurrent use; open one cursor per reader instead.
type ScanCursor struct {
	tbl  *Table
	snap Snapshot
	hi   RowID // the table's next RowID at open
	pos  RowID // next id to resolve
}

// ScanCursorAsOf opens a cursor over the rows visible to snap. The open
// captures the table's next RowID and counts as one scan for ScanCount
// accounting; the per-batch visibility resolution does not.
func (t *Table) ScanCursorAsOf(snap Snapshot) *ScanCursor {
	t.scans.Add(1)
	t.mu.RLock()
	hi := t.nextID
	t.mu.RUnlock()
	return &ScanCursor{tbl: t, snap: snap, hi: hi}
}

// Next appends up to max rows to buf and returns the extended slice; no
// growth means the cursor is exhausted. The error is always nil here and
// exists so future disk-backed cursors can fail mid-stream.
func (c *ScanCursor) Next(buf []types.Tuple, max int) ([]types.Tuple, error) {
	if max <= 0 {
		max = 1
	}
	want := len(buf) + max
	c.tbl.mu.RLock()
	for len(buf) < want {
		id, vs := c.tbl.nextChain(c.pos, c.hi)
		if vs == nil {
			c.pos = c.hi
			break
		}
		c.pos = id + 1
		if row, ok := visibleAt(vs, c.snap); ok {
			buf = append(buf, row)
		}
	}
	c.tbl.mu.RUnlock()
	return buf, nil
}

// Rewind resets the cursor to the first row without re-capturing the
// bound.
func (c *ScanCursor) Rewind() { c.pos = 0 }

// ProbeCursor streams the rows visible to a snapshot whose column
// positions cols equal vals, in RowID order — the streaming counterpart of
// MatchAsOf, served from the table's hash index on the column set.
type ProbeCursor struct {
	tbl  *Table
	snap Snapshot
	cols []int
	vals []types.Value
	ids  []RowID // the index bucket at open, ascending (shared, read-only)
	pos  int
	scan *ScanCursor // empty cols: no index, every visible row matches
}

// ProbeCursor opens an equality-probe cursor. With no index over the column
// set, the first probe builds an undeclared one (under the write lock,
// re-checking first) that every write maintains from then on; a probe over
// no columns is a scan. The open captures the bucket without copying it;
// visibility and the equality predicate are checked per batch against the
// visible row, because a bucket candidate may carry the key only in an
// invisible version, or only share its hash.
func (t *Table) ProbeCursor(snap Snapshot, cols []int, vals []types.Value) (*ProbeCursor, error) {
	if err := t.checkProbe("probe", cols, vals); err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		return &ProbeCursor{scan: t.ScanCursorAsOf(snap)}, nil
	}
	t.mu.RLock()
	if t.index(cols) == nil {
		t.mu.RUnlock()
		t.mu.Lock()
		if t.index(cols) == nil {
			t.indexes = append(t.indexes, t.buildIndex("", slices.Clone(cols)))
		}
		t.mu.Unlock()
		t.mu.RLock()
	}
	ids, _ := t.candidates(cols, vals)
	t.mu.RUnlock()
	return &ProbeCursor{tbl: t, snap: snap, cols: cols, vals: vals, ids: ids[:len(ids):len(ids)]}, nil
}

// Next appends up to max matching rows to buf and returns the extended
// slice; no growth means the cursor is exhausted.
func (c *ProbeCursor) Next(buf []types.Tuple, max int) ([]types.Tuple, error) {
	if c.scan != nil {
		return c.scan.Next(buf, max)
	}
	if max <= 0 {
		max = 1
	}
	want := len(buf) + max
	c.tbl.mu.RLock()
	for c.pos < len(c.ids) && len(buf) < want {
		id := c.ids[c.pos]
		c.pos++
		if row, ok := visibleAt(c.tbl.chain(id), c.snap); ok && matches(row, c.cols, c.vals) {
			buf = append(buf, row)
		}
	}
	c.tbl.mu.RUnlock()
	return buf, nil
}

// Rewind resets the cursor to the first candidate.
func (c *ProbeCursor) Rewind() {
	if c.scan != nil {
		c.scan.Rewind()
	}
	c.pos = 0
}
