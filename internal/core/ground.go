package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/eq"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// roundCursors is the evaluation rounds' shared access-path store; the
// engine keeps one, and newRound points it at each round's snapshot.
//
// Scans: all queries of a round share ONE chain-id capture per table
// (storage.ScanCursorAsOf); each gets an independent-position Clone that
// resolves visibility through its own Snapshot (Self = the posing
// transaction), so a writer-poser still reads its own versions.
//
// Bound scans: a join level with bound positions and no covering index
// probes a hash partition of the table on those positions, built in one
// pass over the round's capture and shared by every query and worker that
// probes the same (table, column set). A partition follows the cross-round
// fingerprint rule (csnPrint): kept if the table's LastCSN was visible to
// the round that built it, reused while LastCSN still equals that value,
// dropped by newRound otherwise — so there is at most one per (table,
// column set), holding row references, and no size bound is needed.
type roundCursors struct {
	cat  *storage.Catalog
	rows *eq.StreamStats  // partition builds count the rows they read here
	view storage.Snapshot // this round's committed view: round CSN, Self = 0

	mu     sync.Mutex
	tables map[*storage.Table]*cursorEntry // this round's chain-id captures
	parts  map[*storage.Table][]*partition // bound-scan partitions, across rounds
}

// cursorEntry captures one table's chain ids exactly once; the per-entry
// Once means concurrent workers capturing DIFFERENT tables never serialize
// behind each other.
type cursorEntry struct {
	once sync.Once
	base *storage.ScanCursor
}

// partition is a table's committed rows at one round snapshot in
// RowID-ordered buckets, hashed on cols with types.Value.Hash (values that
// are Equal share a bucket). Built once behind its own Once.
type partition struct {
	cols    []int
	once    sync.Once
	print   csnPrint
	keep    bool // print was visible to the building round
	buckets map[uint64][]types.Tuple
	err     error
}

func newRoundCursors(cat *storage.Catalog, rows *eq.StreamStats) *roundCursors {
	return &roundCursors{cat: cat, rows: rows, parts: make(map[*storage.Table][]*partition)}
}

// newRound pins the store to one round's snapshot, dropping the previous
// round's captures and every partition whose fingerprint no longer holds.
// Scheduler goroutine only, between rounds.
func (rc *roundCursors) newRound(view storage.Snapshot) *roundCursors {
	view.Self = 0
	rc.view = view
	rc.tables = make(map[*storage.Table]*cursorEntry)
	for tbl, ps := range rc.parts {
		ps = slices.DeleteFunc(ps, func(p *partition) bool { return !p.keep || !p.print.current(rc.cat) })
		if len(ps) == 0 {
			delete(rc.parts, tbl)
		} else {
			rc.parts[tbl] = ps
		}
	}
	return rc
}

// cursor returns a fresh scan cursor over tbl reading through view, sharing
// the round's one-time chain-id capture — exactly one storage scan per
// table per round no matter how many queries ground on it or how many
// workers ground them.
func (rc *roundCursors) cursor(tbl *storage.Table, view storage.Snapshot) *storage.ScanCursor {
	rc.mu.Lock()
	e, ok := rc.tables[tbl]
	if !ok {
		e = &cursorEntry{}
		rc.tables[tbl] = e
	}
	rc.mu.Unlock()
	e.once.Do(func() {
		e.base = tbl.ScanCursorAsOf(rc.view)
	})
	return e.base.Clone(view)
}

// partition returns the shared partition of tbl on cols, building it from
// the round's capture on first use.
func (rc *roundCursors) partition(tbl *storage.Table, cols []int) *partition {
	rc.mu.Lock()
	var p *partition
	for _, q := range rc.parts[tbl] {
		if slices.Equal(q.cols, cols) {
			p = q
			break
		}
	}
	if p == nil {
		p = &partition{cols: slices.Clone(cols)}
		rc.parts[tbl] = append(rc.parts[tbl], p)
	}
	rc.mu.Unlock()
	p.once.Do(func() { rc.build(p, tbl) })
	return p
}

// build hashes the committed rows of the round's capture into p's buckets.
// Its rows count once in the grounding row total, like any other read.
func (rc *roundCursors) build(p *partition, tbl *storage.Table) {
	p.print, p.keep = printAt(tbl, rc.view.CSN)
	p.buckets = make(map[uint64][]types.Tuple)
	cur := rc.cursor(tbl, rc.view)
	var buf []types.Tuple
	for {
		if buf, p.err = cur.Next(buf[:0], eq.DefaultBatchRows); p.err != nil || len(buf) == 0 {
			p.keep = p.keep && p.err == nil
			return
		}
		rc.rows.AddRows(int64(len(buf)))
		for _, row := range buf {
			h := types.HashSeed
			for _, c := range p.cols {
				h = row[c].Hash(h)
			}
			p.buckets[h] = append(p.buckets[h], row)
		}
	}
}

// cursor serves the rows whose cols equal vals: one bucket, filtered
// against hash collisions.
func (p *partition) cursor(vals []types.Value) (eq.RowCursor, error) {
	if p.err != nil {
		return nil, fmt.Errorf("core: grounding read: %w", p.err)
	}
	return eq.MatchCursor(p.buckets[types.Tuple(vals).Hash()], p.cols, vals), nil
}

// csnPrint is the cross-round fingerprint of one table, the rule the
// grounding cache and the bound-scan partitions share: a result computed at
// a round snapshot stays valid exactly while the table is still the
// catalog's and its LastCSN has not moved — MVCC then guarantees any later
// snapshot reads the same rows.
type csnPrint struct {
	tbl *storage.Table
	csn uint64
}

// printAt fingerprints tbl for a result computed at snapshot snapCSN. ok is
// false when LastCSN is already past the snapshot: that commit was invisible
// to the result, yet the fingerprint would validate for later rounds.
func printAt(tbl *storage.Table, snapCSN uint64) (p csnPrint, ok bool) {
	p = csnPrint{tbl: tbl, csn: tbl.LastCSN()}
	return p, p.csn <= snapCSN
}

// current reports whether the fingerprinted result still holds.
func (p csnPrint) current(cat *storage.Catalog) bool {
	tbl, err := cat.Get(p.tbl.Name())
	return err == nil && tbl == p.tbl && tbl.LastCSN() == p.csn
}

// readSet is what an attempt or an answer read, table by table: the column
// positions whose values it depends on, nil meaning every column. It is the
// one column-level rule of the scheduler: a commit that changed only
// columns outside the set changes nothing that was read, so it neither
// wakes a dormant member (waitRecord) nor voids an answer (lockAndValidate).
// The fingerprints above stay table-level: a partition or a cached
// grounding holds whole rows, unread columns included.
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
// the round's shared capture; bound levels probe a real index, or else the
// shared partition (see ProbeCursor).
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
	cursors *roundCursors // the engine's shared access-path store
	indexed *obs.Counter  // engine's indexed_groundings counter
	traced  map[string]bool
}

// traceRG reports one RG event per grounded table per query. A reader
// serves exactly one grounding task, so no locking is needed.
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

// ScanCursor streams table through the round's shared chain-id capture —
// the grounding pipeline's scan access path.
func (g *groundReader) ScanCursor(table string) (eq.RowCursor, error) {
	tbl, err := g.cursors.cat.Get(table)
	if err != nil {
		return nil, fmt.Errorf("core: grounding read: %w", err)
	}
	g.traceRG(tbl.Name())
	return g.cursors.cursor(tbl, g.view), nil
}

// ProbeCursor streams the rows of table whose positions cols equal vals —
// the grounding pipeline's bound-level access path. The source:
//
//   - a real index covers cols (the planner narrows to a covering or
//     single-column index when one exists): an index probe through the
//     round snapshot, the only kind Stats.IndexedGroundings counts;
//   - the poser holds uncommitted writes on the table: a filtered scan
//     under its own view, never the committed partition;
//   - otherwise the shared partition of the table on cols.
func (g *groundReader) ProbeCursor(table string, cols []int, vals []types.Value) (eq.RowCursor, error) {
	tbl, err := g.cursors.cat.Get(table)
	if err != nil {
		return nil, fmt.Errorf("core: grounding read: %w", err)
	}
	g.traceRG(tbl.Name())
	indexed := tbl.HasIndexForCols(cols)
	width := len(tbl.Schema().Columns)
	if !indexed && (g.tx == nil || !g.tx.WroteTable(tbl.Name())) && len(cols) == len(vals) &&
		!slices.ContainsFunc(cols, func(c int) bool { return c < 0 || c >= width }) {
		return g.cursors.partition(tbl, cols).cursor(vals)
	}
	cur, err := tbl.ProbeCursor(g.view, cols, vals)
	if err != nil {
		return nil, fmt.Errorf("core: grounding read: %w", err)
	}
	if indexed {
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
	tbl, err := g.cursors.cat.Get(table)
	if err != nil || !tbl.HasIndexForCols(cols) {
		return false
	}
	g.traceRG(tbl.Name())
	return true
}
