package core

import (
	"fmt"
	"slices"

	"repro/internal/eq"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// readSet is what an attempt or an answer read, table by table: the column
// positions whose values it depends on, nil meaning every column. It is the
// one column-level rule of the scheduler: a commit that changed only
// columns outside the set changes nothing that was read, so it neither
// wakes a dormant member (waitRecord) nor voids an answer (lockAndValidate).
type readSet struct {
	tables []string
	cols   [][]int
}

// readsOf is what q's body reads.
func readsOf(q *eq.Query) *readSet {
	rs := &readSet{}
	rs.addQuery(q)
	return rs
}

// addQuery records what q's body reads (eq.Query.ReadCols).
func (rs *readSet) addQuery(q *eq.Query) {
	for _, a := range q.Body {
		rs.add(a.Rel, q.ReadCols(a))
	}
}

// add records cols of table as read; nil reads the whole table. The set
// takes cols over and may append to it.
func (rs *readSet) add(table string, cols []int) {
	i := slices.Index(rs.tables, table)
	switch {
	case i < 0:
		rs.tables = append(rs.tables, table)
		rs.cols = append(rs.cols, cols)
	case rs.cols[i] == nil || cols == nil:
		rs.cols[i] = nil
	default:
		for _, c := range cols {
			if !slices.Contains(rs.cols[i], c) {
				rs.cols[i] = append(rs.cols[i], c)
			}
		}
	}
}

// changedSince reports whether a commit after csn changed a read column of
// some table (a table that is gone counts as changed).
func (rs *readSet) changedSince(cat *storage.Catalog, csn uint64) bool {
	for i, name := range rs.tables {
		if tbl, err := cat.Get(name); err != nil || tbl.ColsCSN(rs.cols[i]) > csn {
			return true
		}
	}
	return false
}

// groundReader is the eq.CursorReader an evaluation round hands each pending
// query: it reads through the round's pinned snapshot (plus the posing
// transaction's own uncommitted writes) instead of taking shared locks —
// the lock-free grounding path. Every query of a round grounds against the
// same CSN, so evaluation sees one fixed database state that not even
// transactions outside the run can perturb mid-round. Scans stream through
// a chain-id capture of their own; bound levels probe the table's hash
// index on their columns (see ProbeCursor).
//
// Grounding reads are reported to the trace sink as RG events attributed
// to the posing transaction (once per table per query, matching the old
// fetch-each-relation-once behavior), preserving the Appendix C.1
// attribution the isolation checker relies on. Autocommit members (no
// transaction) ground silently, matching §4's "entangled queries outside a
// transaction block" which hold no state after the round.
type groundReader struct {
	view    storage.Snapshot // round snapshot, Self = posing tx (if any)
	tx      *txn.Txn         // posing transaction (nil for autocommit members)
	trace   TraceSink
	cat     *storage.Catalog
	indexed *obs.Counter // engine's indexed_groundings counter
	traced  map[string]bool
}

// traceRG reports one RG event per grounded table per query.
func (g *groundReader) traceRG(table string) {
	if g.trace == nil || g.tx == nil || g.traced[table] {
		return
	}
	if g.traced == nil {
		g.traced = make(map[string]bool)
	}
	g.traced[table] = true
	g.trace.GroundingRead(g.tx.ID(), table)
}

// ScanCursor streams table through a chain-id capture taken through the
// member's view — the grounding pipeline's scan access path.
func (g *groundReader) ScanCursor(table string) (eq.RowCursor, error) {
	tbl, err := g.cat.Get(table)
	if err != nil {
		return nil, fmt.Errorf("core: grounding read: %w", err)
	}
	g.traceRG(tbl.Name())
	return tbl.ScanCursorAsOf(g.view), nil
}

// ProbeCursor streams the rows of table whose positions cols equal vals —
// the grounding pipeline's bound-level access path — from the table's hash
// index on cols: declared by CREATE INDEX, or built undeclared by the first
// probe and maintained by every write since. It reads through the round
// snapshot, so the poser's own uncommitted versions are visible and nobody
// else's are. Only declared indexes count in Stats.IndexedGroundings.
func (g *groundReader) ProbeCursor(table string, cols []int, vals []types.Value) (eq.RowCursor, error) {
	tbl, err := g.cat.Get(table)
	if err != nil {
		return nil, fmt.Errorf("core: grounding read: %w", err)
	}
	g.traceRG(tbl.Name())
	cur, err := tbl.ProbeCursor(g.view, cols, vals)
	if err != nil {
		return nil, fmt.Errorf("core: grounding read: %w", err)
	}
	if tbl.HasIndexForCols(cols) {
		g.indexed.Add(1)
	}
	return cur, nil
}

// CanProbe reports whether table carries an equality index over the given
// column positions. A positive answer shapes the planner's join order, so
// the grounding-read trace event is emitted here — even if an empty outer
// atom means no probe ever executes, the query's read dependency on the
// table is recorded, exactly as the old fetch-every-relation path did.
func (g *groundReader) CanProbe(table string, cols []int) bool {
	tbl, err := g.cat.Get(table)
	if err != nil || !tbl.HasIndexForCols(cols) {
		return false
	}
	g.traceRG(tbl.Name())
	return true
}
