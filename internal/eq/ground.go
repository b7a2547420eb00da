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
// When the planner finds an atom whose argument positions cols are all
// equality-bound (constants, variables bound by earlier atoms, or variables
// constrained equal to a constant) and CanProbe reports an index over them,
// the join routes that atom through ProbeCursor instead of streaming the
// whole relation — the EMBANKS-style candidate pruning of the incremental
// grounding path. ProbeCursor must yield exactly the rows ScanCursor would,
// filtered to those whose positions cols equal vals, in the same relative
// order, so that probing and scanning enumerate identical groundings in
// identical order.
type CursorReader interface {
	// ScanCursor streams every row of table.
	ScanCursor(table string) (RowCursor, error)
	// CanProbe reports whether table supports an indexed equality probe
	// over the given column positions.
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
	rows, ok := m[table]
	if !ok {
		return nil, fmt.Errorf("eq: no such relation %s", table)
	}
	return &sliceCursor{rows: rows}, nil
}

// CanProbe reports no indexes: every atom scans.
func (m MapReader) CanProbe(string, []int) bool { return false }

// ProbeCursor is never planned (CanProbe is false).
func (m MapReader) ProbeCursor(table string, _ []int, _ []types.Value) (RowCursor, error) {
	return nil, fmt.Errorf("eq: relation %s has no index", table)
}

// sliceCursor serves a materialized row slice as a RowCursor.
type sliceCursor struct {
	rows []types.Tuple
	pos  int
}

func (c *sliceCursor) Next(buf []types.Tuple, max int) ([]types.Tuple, error) {
	if max <= 0 {
		max = 1
	}
	end := c.pos + max
	if end > len(c.rows) {
		end = len(c.rows)
	}
	buf = append(buf, c.rows[c.pos:end]...)
	c.pos = end
	return buf, nil
}

func (c *sliceCursor) Rewind() { c.pos = 0 }

// eqBindings extracts the variables constrained equal to a non-NULL
// constant (?v = c). They count as bound for atom ordering and index
// probing, and reject rows early during matching. The valuation still binds
// such variables to the row's value, exactly as the scan path does, so
// int/date-interoperable constants cannot leak into answers.
func eqBindings(q *Query) map[string]types.Value {
	out := make(map[string]types.Value)
	for _, c := range q.Where {
		if c.Op != OpEq {
			continue
		}
		v, k := c.Left, c.Right
		if !v.IsVar {
			v, k = k, v
		}
		if !v.IsVar || k.IsVar || k.Value.IsNull() {
			continue
		}
		if prev, ok := out[v.Name]; ok && !prev.Equal(k.Value) {
			// Contradictory constants: the eager constraint check rejects
			// every row anyway; keep the first binding.
			continue
		}
		out[v.Name] = k.Value
	}
	return out
}
