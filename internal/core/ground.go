package core

import (
	"fmt"
	"sync"

	"repro/internal/eq"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// roundCursors is an evaluation round's shared cursor cache. Every query of
// a round grounds against the same pinned snapshot, so N queries scanning
// the same table share ONE chain-id capture (storage.ScanCursorAsOf)
// instead of paying N captures — and, unlike the materialized scan cache
// this replaces, nobody ever holds a cloned copy of the table: each query
// gets an independent-position Clone of the base cursor and pulls row
// references batch by batch.
//
// The capture is view-independent: it records every chain id, and each
// clone resolves visibility through its own Snapshot (Self = the posing
// transaction for members with uncommitted writes, 0 otherwise). The old
// cache's poser-write bypass therefore disappears — a writer-poser's clone
// simply resolves its own uncommitted versions visible, sharing the same id
// list as everyone else.
type roundCursors struct {
	view storage.Snapshot // committed view: round CSN, Self = 0

	mu     sync.Mutex
	tables map[string]*cursorEntry
}

// cursorEntry captures one table's chain ids exactly once; the per-entry
// Once means concurrent workers capturing DIFFERENT tables never serialize
// behind each other.
type cursorEntry struct {
	once sync.Once
	base *storage.ScanCursor
}

func newRoundCursors(view storage.Snapshot) *roundCursors {
	view.Self = 0
	return &roundCursors{view: view, tables: make(map[string]*cursorEntry)}
}

// cursor returns a fresh scan cursor over tbl reading through view, sharing
// the round's one-time chain-id capture — exactly one storage scan per
// table per round no matter how many queries ground on it or how many
// workers ground them.
func (rc *roundCursors) cursor(tbl *storage.Table, view storage.Snapshot) *storage.ScanCursor {
	rc.mu.Lock()
	e, ok := rc.tables[tbl.Name()]
	if !ok {
		e = &cursorEntry{}
		rc.tables[tbl.Name()] = e
	}
	rc.mu.Unlock()
	e.once.Do(func() {
		e.base = tbl.ScanCursorAsOf(rc.view)
	})
	return e.base.Clone(view)
}

// groundReader is the eq.CursorReader an evaluation round hands each pending
// query: it reads through the round's pinned snapshot (plus the posing
// transaction's own uncommitted writes) instead of taking shared locks —
// the lock-free grounding path. Every query of a round grounds against the
// same CSN, so evaluation still sees one fixed database state; the
// snapshot is an even stronger fixed point than the old "all members are
// blocked" argument, because not even transactions outside the run can
// perturb it mid-round.
//
// Full scans stream through the round's shared cursor cache (one chain-id
// capture per table per round, zero row cloning), and equality-bound atoms
// probe the table's hash indexes through the same snapshot visibility
// check.
//
// Every read resolves through g.view, whose Self is the posing transaction:
// for tables the poser wrote, its uncommitted versions (and tombstones) are
// visible; for tables it did not write, Self changes nothing, so no
// write-set lookup is needed to route reads.
//
// Grounding reads are reported to the trace sink as RG events attributed
// to the posing transaction (once per table per query, matching the old
// fetch-each-relation-once behavior), preserving the Appendix C.1
// attribution the isolation checker relies on. Autocommit members (no
// transaction) ground silently, matching §4's "entangled queries outside a
// transaction block" which hold no state after the round.
type groundReader struct {
	cat     *storage.Catalog
	view    storage.Snapshot // round snapshot, Self = posing tx (if any)
	txID    uint64           // posing transaction (0 for autocommit members)
	trace   TraceSink
	cursors *roundCursors // shared round cursor cache
	indexed *obs.Counter  // engine's indexed_groundings counter
	traced  map[string]bool
}

// traceRG reports one RG event per grounded table per query. A reader
// serves exactly one grounding task, so no locking is needed.
func (g *groundReader) traceRG(table string) {
	if g.trace == nil || g.txID == 0 || g.traced[table] {
		return
	}
	if g.traced == nil {
		g.traced = make(map[string]bool)
	}
	g.traced[table] = true
	g.trace.GroundingRead(g.txID, table)
}

// ScanCursor streams table through the round's shared chain-id capture —
// the grounding pipeline's scan access path.
func (g *groundReader) ScanCursor(table string) (eq.RowCursor, error) {
	tbl, err := g.cat.Get(table)
	if err != nil {
		return nil, fmt.Errorf("core: grounding read: %w", err)
	}
	g.traceRG(tbl.Name())
	return g.cursors.cursor(tbl, g.view), nil
}

// ProbeCursor streams an indexed equality probe through the round snapshot
// — the grounding pipeline's probe access path.
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
	g.indexed.Add(1)
	return cur, nil
}

// CanProbe reports whether table carries an equality index over the given
// column positions. A positive answer commits the
// planner to probing instead of scanning, so the grounding-read trace
// event is emitted here — even if an empty outer atom means no probe ever
// executes, the query's read dependency on the table is recorded, exactly
// as the old fetch-every-relation path did.
func (g *groundReader) CanProbe(table string, cols []int) bool {
	tbl, err := g.cat.Get(table)
	if err != nil {
		return false
	}
	if !tbl.HasIndexForCols(cols) {
		return false
	}
	g.traceRG(tbl.Name())
	return true
}
