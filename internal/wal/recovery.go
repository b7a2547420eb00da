package wal

import (
	"fmt"

	"repro/internal/storage"
)

// RecoveryStats summarizes what recovery did.
type RecoveryStats struct {
	RecordsScanned   int
	TxCommitted      int    // transactions whose effects were redone
	TxRolledBack     int    // transactions discarded (no commit, or widowed group)
	GroupsRecovered  int    // entanglement groups redone atomically
	GroupsRolledBack int    // groups rolled back because a member lacked a commit
	MaxCSN           uint64 // highest CSN seen (snapshot header or log); seeds the clock
	SnapshotCSN      uint64 // commit clock recorded in the checkpoint snapshot (0 if none)
	MaxTx            TxID   // highest transaction id seen; seeds the tx-id counter

	// Two-phase commit residue. A transaction with a prepare record but no
	// local commit/abort is in-doubt: its effects are NOT redone, its
	// records are retained so a later coordinator decision can be applied
	// (txn.Manager.CommitRecovered / AbortRecovered). Decisions carries the
	// distributed-group verdicts this log itself recorded — on a
	// coordinator node that is the authoritative answer for in-doubt
	// participants asking.
	InDoubt        map[TxID]uint64    // in-doubt participant tx -> distributed group id
	InDoubtRecords map[TxID][]*Record // their data records, in log order
	Decisions      map[uint64]bool    // group id -> committed (coordinator log)
}

// Recover rebuilds database state from the log at path into cat. Tables
// referenced by data records must either exist in cat already or be created
// by CreateTable records earlier in the log.
//
// The redo set is computed with the paper's entanglement-aware rule:
//
//  1. A transaction with a Commit record (or covered by a GroupCommit) is a
//     tentative winner.
//  2. Entangle records induce groups (transitively). A group is durable only
//     if every member is a tentative winner; otherwise every member of the
//     group is rolled back — the §4 recovery rule that prevents widowed
//     transactions from surviving a crash.
//
// Effects of winners are replayed in log order, stamped with each winner's
// logged CSN. Because writers hold exclusive row locks to commit (under
// every isolation level, including snapshot isolation), conflicting writes
// of winners appear in the log in commit-CSN order, so redo-only replay
// rebuilds each row's version chain exactly as the live system ordered it.
// Only legacy logs, written by earlier versions, carry Begin and Entangle
// records, Aborts of unprepared transactions, Update before-images
// (Record.Old) and Delete row images; the engine now commits a group in
// one GroupCommit record, so rule 2 never demotes what it writes.
func Recover(path string, cat *storage.Catalog) (*RecoveryStats, error) {
	records, err := ReadAll(path)
	if err != nil {
		return nil, err
	}
	return replay(records, cat)
}

// replay is Recover over records already read, in log order.
func replay(records []*Record, cat *storage.Catalog) (*RecoveryStats, error) {
	stats := &RecoveryStats{RecordsScanned: len(records)}

	// Pass 1: analysis — committed set (with each winner's CSN, so replay
	// can rebuild version order) and entanglement groups.
	committed := make(map[TxID]bool)
	commitCSN := make(map[TxID]uint64)
	seen := make(map[TxID]bool)
	prepared := make(map[TxID]uint64) // tx -> distributed group id
	aborted := make(map[TxID]bool)
	stats.Decisions = make(map[uint64]bool)
	uf := newUnionFind()
	for _, r := range records {
		if r.Tx > stats.MaxTx {
			stats.MaxTx = r.Tx
		}
		switch r.Type {
		case RecBegin:
			seen[r.Tx] = true
		case RecCommit:
			committed[r.Tx] = true
			commitCSN[r.Tx] = r.CSN
			if r.CSN > stats.MaxCSN {
				stats.MaxCSN = r.CSN
			}
		case RecGroupCommit:
			for _, tx := range r.Group {
				committed[tx] = true
				commitCSN[tx] = r.CSN
				if tx > stats.MaxTx {
					stats.MaxTx = tx
				}
			}
			if r.CSN > stats.MaxCSN {
				stats.MaxCSN = r.CSN
			}
		case RecEntangle:
			for _, tx := range r.Group {
				seen[tx] = true
				uf.union(r.Group[0], tx)
				if tx > stats.MaxTx {
					stats.MaxTx = tx
				}
			}
		case RecInsert, RecDelete, RecUpdate:
			seen[r.Tx] = true
		case RecPrepare:
			if len(r.Group) == 1 {
				seen[r.Tx] = true
				prepared[r.Tx] = uint64(r.Group[0])
			}
		case RecAbort:
			aborted[r.Tx] = true
		case RecDecideCommit:
			if len(r.Group) == 1 {
				stats.Decisions[uint64(r.Group[0])] = true
			}
		case RecDecideAbort:
			if len(r.Group) == 1 {
				stats.Decisions[uint64(r.Group[0])] = false
			}
		}
	}

	// In-doubt set: prepared, never resolved locally. Their effects are
	// withheld from redo; the records are kept so the decision can be
	// applied once known.
	stats.InDoubt = make(map[TxID]uint64)
	stats.InDoubtRecords = make(map[TxID][]*Record)
	for tx, group := range prepared {
		if !committed[tx] && !aborted[tx] {
			stats.InDoubt[tx] = group
		}
	}
	for _, r := range records {
		if _, ok := stats.InDoubt[r.Tx]; !ok {
			continue
		}
		switch r.Type {
		case RecInsert, RecDelete, RecUpdate:
			stats.InDoubtRecords[r.Tx] = append(stats.InDoubtRecords[r.Tx], r)
		}
	}

	// Pass 2: entanglement-aware demotion. Any group containing a
	// non-committed member loses entirely.
	groupLost := make(map[TxID]bool) // keyed by group root
	for tx := range seen {
		if root, ok := uf.find(tx); ok && !committed[tx] {
			groupLost[root] = true
		}
	}
	winners := make(map[TxID]bool)
	for tx := range committed {
		if root, ok := uf.find(tx); ok && groupLost[root] {
			continue
		}
		winners[tx] = true
	}

	// Stats about groups.
	groupMembers := make(map[TxID][]TxID)
	for tx := range seen {
		if root, ok := uf.find(tx); ok {
			groupMembers[root] = append(groupMembers[root], tx)
		}
	}
	for root := range groupMembers {
		if groupLost[root] {
			stats.GroupsRolledBack++
		} else {
			stats.GroupsRecovered++
		}
	}

	// Pass 3: redo winners (and DDL) in log order.
	for _, r := range records {
		switch r.Type {
		case RecCreateTable:
			if cat.Has(r.Table) {
				continue
			}
			schema, err := tupleToSchema(r.Row)
			if err != nil {
				return nil, err
			}
			if _, err := cat.Create(r.Table, schema); err != nil {
				return nil, err
			}
		case RecCreateIndex:
			tbl, err := cat.Get(r.Table)
			if err != nil {
				return nil, fmt.Errorf("wal: recover index: %w", err)
			}
			if len(r.Row) < 2 {
				return nil, fmt.Errorf("wal: malformed index record for %s", r.Table)
			}
			cols := make([]string, 0, len(r.Row)-1)
			for _, v := range r.Row[1:] {
				cols = append(cols, v.Str64())
			}
			// Idempotent: a snapshot taken after the switch that logged
			// this DDL already carries the index.
			if err := tbl.CreateIndex(r.Row[0].Str64(), cols...); err != nil && !tbl.HasIndexOn(cols...) {
				return nil, fmt.Errorf("wal: recover index: %w", err)
			}
		case RecInsert, RecDelete, RecUpdate:
			if !winners[r.Tx] {
				continue
			}
			if err := Redo(cat, r, commitCSN[r.Tx]); err != nil {
				return nil, fmt.Errorf("wal: recover: %w", err)
			}
		}
	}

	stats.TxCommitted = len(winners)
	for tx := range seen {
		if _, inDoubt := stats.InDoubt[tx]; !winners[tx] && !inDoubt {
			stats.TxRolledBack++
		}
	}
	return stats, nil
}

// Redo applies one Insert, Delete or Update record to cat as a version
// committed at csn: recovery's replay, and the commit of an in-doubt
// transaction after restart.
func Redo(cat *storage.Catalog, r *Record, csn uint64) error {
	tbl, err := cat.Get(r.Table)
	if err == nil {
		switch id := storage.RowID(r.RowID); r.Type {
		case RecInsert:
			err = tbl.InsertAtCSN(id, r.Row, csn)
		case RecDelete:
			_, err = tbl.DeleteCSN(id, csn)
		case RecUpdate:
			_, err = tbl.UpdateCSN(id, r.Row, csn)
		}
	}
	if err != nil {
		return fmt.Errorf("%v: %w", r.Type, err)
	}
	return nil
}

// unionFind is a tiny union-find over TxIDs for entanglement groups.
type unionFind struct {
	parent map[TxID]TxID
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[TxID]TxID)} }

// find returns the root of tx and whether tx participates in any group.
func (u *unionFind) find(tx TxID) (TxID, bool) {
	p, ok := u.parent[tx]
	if !ok {
		return tx, false
	}
	if p == tx {
		return tx, true
	}
	root, _ := u.find(p)
	u.parent[tx] = root
	return root, true
}

func (u *unionFind) union(a, b TxID) {
	ra, okA := u.find(a)
	if !okA {
		u.parent[a] = a
		ra = a
	}
	rb, okB := u.find(b)
	if !okB {
		u.parent[b] = b
		rb = b
	}
	if ra != rb {
		u.parent[rb] = ra
	}
}
