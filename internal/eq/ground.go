package eq

import (
	"fmt"

	"repro/internal/types"
)

// RowCursor is the pull iterator the streaming join consumes. Next appends
// up to max rows to buf and returns the extended slice; returning buf
// unchanged means exhaustion. Returned rows may alias storage the producer
// owns and are valid only until the next call that reuses buf — the
// executor copies values out of rows and never retains or mutates them.
// Rewind resets the cursor to its first row without redoing the open.
type RowCursor interface {
	Next(buf []types.Tuple, max int) ([]types.Tuple, error)
	Rewind()
}

// CursorReader is the view of the database a query grounds against: the
// one access-path interface of the grounding pipeline. The engine's round
// reader satisfies it on behalf of the posing transaction, so grounding
// reads are attributed to that transaction — the attribution Appendix C.1
// prescribes ("we associate grounding reads with the transaction posing the
// entangled query").
//
// Every atom with equality-bound argument positions (constants, variables
// bound by earlier atoms, or variables constrained equal to a constant)
// opens through ProbeCursor instead of streaming the whole relation — the
// EMBANKS-style candidate pruning of the incremental grounding path — over
// any column set, whether a real index (CanProbe) covers it or not.
// ProbeCursor must yield exactly the rows ScanCursor would, filtered to
// those whose positions cols equal vals, in the same relative (scan, RowID)
// order, so that probing and scanning enumerate identical groundings in
// identical order.
type CursorReader interface {
	// ScanCursor streams every row of table.
	ScanCursor(table string) (RowCursor, error)
	// CanProbe reports whether a real index on table covers the given
	// column positions; it shapes join order only.
	CanProbe(table string, cols []int) bool
	// ProbeCursor streams the rows of table whose column positions cols
	// equal vals, in scan order.
	ProbeCursor(table string, cols []int, vals []types.Value) (RowCursor, error)
}

// MapReader is a trivial in-memory CursorReader for tests and offline
// evaluation: unindexed relations served as slices.
type MapReader map[string][]types.Tuple

// ScanCursor streams the named relation's rows.
func (m MapReader) ScanCursor(table string) (RowCursor, error) {
	return m.ProbeCursor(table, nil, nil)
}

// CanProbe reports no indexes: join order ignores access paths.
func (m MapReader) CanProbe(string, []int) bool { return false }

// ProbeCursor streams the named relation's rows filtered to cols = vals.
func (m MapReader) ProbeCursor(table string, cols []int, vals []types.Value) (RowCursor, error) {
	rows, ok := m[table]
	if !ok {
		return nil, fmt.Errorf("eq: no such relation %s", table)
	}
	return SliceCursor(rows, cols, vals), nil
}

// SliceCursor serves the rows whose positions cols equal vals (every row
// when cols is empty), in slice order.
func SliceCursor(rows []types.Tuple, cols []int, vals []types.Value) RowCursor {
	return &sliceCursor{rows: rows, cols: cols, vals: vals}
}

// sliceCursor serves the rows of a slice whose positions cols equal vals
// (every row when cols is empty), in slice order, appending references
// without allocating. A row too short for a probed position passes, so the
// join's row loop reports its arity error as a scan would.
type sliceCursor struct {
	rows []types.Tuple
	cols []int
	vals []types.Value
	pos  int
}

func (c *sliceCursor) Next(buf []types.Tuple, max int) ([]types.Tuple, error) {
	if max <= 0 {
		max = 1
	}
	want := len(buf) + max
rows:
	for c.pos < len(c.rows) && len(buf) < want {
		row := c.rows[c.pos]
		c.pos++
		for i, col := range c.cols {
			if col < len(row) && !row[col].Equal(c.vals[i]) {
				continue rows
			}
		}
		buf = append(buf, row)
	}
	return buf, nil
}

func (c *sliceCursor) Rewind() { c.pos = 0 }

// eqBindings extracts, per body variable slot of plan, the non-NULL
// constant or the parameter a ?v = c constraint fixes it to, and the slot
// pairs ?x = ?y constraints equate. Such variables count as bound for atom
// ordering and index probing (a pair once either side is bound), and
// constants reject rows early during matching. The valuation still binds
// such variables to the row's value, exactly as the scan path does, so
// int/date-interoperable constants cannot leak into answers.
func (plan *joinPlan) eqBindings(q *Query) {
	out := zeroed(plan.eq, len(plan.vars))
	pairs := plan.pairs[:0]
	for _, c := range q.Where {
		if c.Op != OpEq || c.Or != nil {
			continue
		}
		v, k := c.Left, c.Right
		if !v.IsVar {
			v, k = k, v
		}
		if v.IsVar && k.IsVar {
			if a, b := plan.slot(v.Name), plan.slot(k.Name); a >= 0 && b >= 0 && a != b {
				pairs = append(pairs, [2]int32{a, b})
			}
			continue
		}
		if !v.IsVar || k.Param == 0 && (!k.IsConst() || k.Value.IsNull()) {
			continue
		}
		// A variable no atom binds has no slot; of contradictory constants
		// the first is kept, and the eager constraint check rejects every
		// row anyway. A parameter bound to NULL still fails the check.
		if s := plan.slot(v.Name); s >= 0 && !out[s].ok {
			o := plan.term(k)
			out[s] = eqConst{val: o.val, ok: true, param: o.slot}
		}
	}
	plan.eq, plan.pairs = out, pairs
}
