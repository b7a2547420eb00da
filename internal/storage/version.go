package storage

import "repro/internal/types"

// Multi-version storage: every RowID maps to a chain of row versions, each
// stamped with the commit sequence number (CSN) of the transaction that
// produced it. Uncommitted versions carry the writer's transaction id
// instead; commit stamps them with the allocated CSN, abort removes them.
// Readers resolve a chain against a Snapshot — the lock-free read path that
// replaces shared locks for snapshot-isolated transactions and for
// entangled-query grounding rounds.

// Snapshot is a consistent point-in-time view of the database: the newest
// CSN whose effects are visible, plus (optionally) the transaction whose
// own uncommitted writes are visible. The zero Snapshot sees only
// bulk-loaded data (CSN 0).
type Snapshot struct {
	// CSN is the highest commit sequence number visible to this snapshot.
	CSN uint64
	// Self is the transaction whose uncommitted versions are visible (a
	// transaction always reads its own writes); 0 for pure observers.
	Self uint64
}

// uncommittedCSN marks a version whose writer has not committed yet.
const uncommittedCSN = ^uint64(0)

// version is one entry of a row's version chain. A nil row is a delete
// tombstone.
type version struct {
	csn uint64 // commit sequence number; uncommittedCSN while the writer is active
	tx  uint64 // writer transaction id (meaningful while uncommitted)
	row types.Tuple
}

func (v *version) committed() bool { return v.csn != uncommittedCSN }

// chains are stored oldest-first; appends go at the tail and visibility
// walks from the tail (newest) backward.

// latestVisible resolves a chain for a "current state" reader: the newest
// version that is committed or written by self. This is what the Strict-2PL
// read path observes — locks guarantee no other transaction's uncommitted
// version can sit above the one returned.
func latestVisible(vs []version, self uint64) (types.Tuple, bool) {
	for i := len(vs) - 1; i >= 0; i-- {
		v := &vs[i]
		if v.committed() || v.tx == self {
			return v.row, v.row != nil
		}
	}
	return nil, false
}

// currentState is the snapshot that resolves every chain as
// latestVisible(vs, reader) does: all committed versions plus reader's own.
func currentState(reader uint64) Snapshot {
	return Snapshot{CSN: uncommittedCSN - 1, Self: reader}
}

// visibleAt resolves a chain against a snapshot: the newest version that
// either committed at or before the snapshot's CSN or belongs to the
// snapshot's own transaction.
func visibleAt(vs []version, snap Snapshot) (types.Tuple, bool) {
	for i := len(vs) - 1; i >= 0; i-- {
		v := &vs[i]
		if (v.committed() && v.csn <= snap.CSN) || (!v.committed() && v.tx == snap.Self) {
			return v.row, v.row != nil
		}
	}
	return nil, false
}
