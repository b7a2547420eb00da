package txn

import (
	"fmt"

	"repro/internal/lock"
	"repro/internal/wal"
)

// Two-phase distributed group commit, participant and coordinator halves.
//
// Preparing is a participant's one moment in the log: its redo records and
// the prepare mark that makes it in-doubt at recovery go out in one flushed
// append. The transaction stays Active — locks held, versions uncommitted —
// until the coordinator's decision: commit (CommitUnits) then logs only the
// commit record, abort one Abort. A participant that wrote nothing logs
// nothing.

// Prepare parks t as an in-doubt participant of the distributed group, with
// no state transition. The caller must hold the transaction through to the
// decision.
func (m *Manager) Prepare(t *Txn, group uint64) error {
	if t.state != Active {
		return fmt.Errorf("txn: prepare: transaction %d is %v", t.id, t.state)
	}
	if m.log == nil || len(t.undo) == 0 {
		return nil
	}
	var b redoBatch
	t.appendRedo(&b)
	b.recs = append(b.recs, *wal.Prepare(wal.TxID(t.id), group))
	err := b.append(m.log)
	t.prepared = err == nil
	return err
}

// LogDecision durably records the coordinator's verdict for a distributed
// group. It MUST return before the decision fans out to any participant:
// the log is what makes the decision survive a coordinator crash, and
// recovery hands it back through RecoveryStats.Decisions.
func (m *Manager) LogDecision(group uint64, commit bool) error {
	if m.log == nil {
		return nil
	}
	if commit {
		return m.log.Append(wal.DecideCommit(group))
	}
	return m.log.Append(wal.DecideAbort(group))
}

// LockRecovered X-locks the rows an in-doubt transaction's records write,
// under its own id, as its prepared self held them before the restart: a
// fresh writer of one waits for the decision. CommitRecovered or
// AbortRecovered releases them.
func (m *Manager) LockRecovered(tx wal.TxID, recs []*wal.Record) error {
	for _, r := range recs {
		if err := m.locks.TryAcquire(uint64(tx), lock.TableRow{Table: r.Table, Row: r.RowID}, lock.X); err != nil {
			return fmt.Errorf("txn: lock in-doubt %v of tx %d: %w", r.Type, tx, err)
		}
	}
	return nil
}

// CommitRecovered applies a commit decision to an in-doubt transaction
// after restart. Recovery withheld the transaction's effects; they are
// redone here at a fresh CSN, with the commit record logged first and the
// clock published last — the same order the live commit path uses — and
// then its row locks are released. The records must be the transaction's
// data records in log order (RecoveryStats.InDoubtRecords).
func (m *Manager) CommitRecovered(tx wal.TxID, recs []*wal.Record) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	csn := m.clock.Load() + 1
	if m.log != nil {
		if err := m.log.Append(wal.Commit(tx, csn)); err != nil {
			return err
		}
	}
	for _, r := range recs {
		if err := wal.Redo(m.cat, r, csn); err != nil {
			return fmt.Errorf("txn: commit recovered: %w", err)
		}
	}
	m.clock.Store(csn)
	m.locks.ReleaseAll(uint64(tx))
	return nil
}

// AbortRecovered resolves an in-doubt transaction to abort: the abort
// record ends the in-doubt state (the effects were never applied, so
// there is nothing to undo) and its row locks are released.
func (m *Manager) AbortRecovered(tx wal.TxID) error {
	if m.log != nil {
		if err := m.log.Append(wal.Abort(tx)); err != nil {
			return err
		}
	}
	m.locks.ReleaseAll(uint64(tx))
	return nil
}

// SeedTx advances the transaction-id counter past ids recovered from the
// log, so a restarted process can never mint a transaction id that
// collides with an in-doubt (or any logged) predecessor.
func (m *Manager) SeedTx(max wal.TxID) {
	for {
		cur := m.nextTx.Load()
		if uint64(max) <= cur || m.nextTx.CompareAndSwap(cur, uint64(max)) {
			return
		}
	}
}
