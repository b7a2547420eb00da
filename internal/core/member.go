package core

import (
	"errors"
	"time"

	"repro/internal/eq"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// Member operation implementations backing the Tx API. Two modes:
//
//   - transactional (default): operations run on the member's substrate
//     transaction under Strict 2PL; retryable lock failures (deadlock,
//     lock-wait timeout) unwind the body so the transaction aborts and
//     retries in a later run.
//   - autocommit (-Q workloads): every operation is its own short
//     transaction, committed immediately — the paper's non-transactional
//     comparison point.

// retryable reports whether an error warrants abort-and-requeue rather
// than permanent failure: deadlock victims, lock-wait timeouts, and
// snapshot-isolation first-committer-wins losers all retry with a fresh
// transaction (and a fresh snapshot) in a later run.
func retryable(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) ||
		errors.Is(err, lock.ErrTimeout) ||
		errors.Is(err, txn.ErrWriteConflict)
}

// check returns nil-able errors to the body but unwinds on retryable ones.
func (m *member) check(err error) error {
	if err == nil {
		return nil
	}
	if retryable(err) {
		if errors.Is(err, txn.ErrWriteConflict) {
			m.run.e.bump(m.run.e.met.writeConflict)
		}
		panic(unwindRetry)
	}
	return err
}

// simulateLatency models the per-statement round trip (Options.StmtLatency)
// with time.Sleep. The kernel rounds small sleeps up, but it does so
// consistently across workloads and — unlike spin-waiting — sleeping does
// not consume CPU, so the connection-scaling shape of Figure 6(a) is
// preserved beyond the machine's core count.
func (m *member) simulateLatency() {
	d := m.run.e.opts.StmtLatency
	if d <= 0 || m.entry.prog.NoLatency {
		return
	}
	time.Sleep(d)
}

// do runs one Tx operation on table: it records the read, simulates the
// statement round trip, and runs op on the member's transaction — or, in
// autocommit mode, on a fresh single-statement transaction committed at
// once.
func (m *member) do(table string, op func(*txn.Txn) error) error {
	m.wait.note(table)
	m.simulateLatency()
	if !m.entry.prog.Autocommit {
		return m.check(op(m.tx))
	}
	t, err := m.run.e.txm.Begin(txn.Serializable)
	if err == nil {
		if err = op(t); err != nil {
			t.Abort()
		} else {
			err = t.Commit()
		}
	}
	return m.check(err)
}

func (m *member) opScan(table string) (rows []types.Tuple, err error) {
	err = m.do(table, func(t *txn.Txn) (e error) {
		rows, e = t.Scan(table)
		return e
	})
	return rows, err
}

func (m *member) opScanIDs(table string) (ids []storage.RowID, rows []types.Tuple, err error) {
	err = m.do(table, func(t *txn.Txn) (e error) {
		ids, rows, e = t.ScanIDs(table)
		return e
	})
	return ids, rows, err
}

func (m *member) opLookup(table string, columns []string, key types.Tuple) ([]types.Tuple, error) {
	_, rows, err := m.opLookupIDs(table, columns, key)
	return rows, err
}

func (m *member) opLookupIDs(table string, columns []string, key types.Tuple) (ids []storage.RowID, rows []types.Tuple, err error) {
	err = m.do(table, func(t *txn.Txn) (e error) {
		ids, rows, e = t.LookupIDs(table, columns, key)
		return e
	})
	return ids, rows, err
}

func (m *member) opInsert(table string, row types.Tuple) (id storage.RowID, err error) {
	err = m.do(table, func(t *txn.Txn) (e error) {
		id, e = t.Insert(table, row)
		return e
	})
	return id, err
}

func (m *member) opUpdate(table string, id storage.RowID, row types.Tuple) error {
	return m.do(table, func(t *txn.Txn) error { return t.Update(table, id, row) })
}

func (m *member) opDelete(table string, id storage.RowID) error {
	return m.do(table, func(t *txn.Txn) error { return t.Delete(table, id) })
}

// opEntangle blocks the member on an entangled query. The §3.1 semantics:
// the call does not return until the query is answered in some evaluation
// round; if the run ends first, the transaction aborts and is requeued —
// the body unwinds and never observes the failed attempt.
func (m *member) opEntangle(q *eq.Query) *eq.Answer {
	m.simulateLatency()
	if err := q.Validate(); err != nil {
		return &eq.Answer{Status: eq.Errored, Err: err}
	}
	r := m.run
	if r.direct {
		return &eq.Answer{Status: eq.Errored, Err: ErrDirectEntangle}
	}
	m.wait.queries = append(m.wait.queries, q)
	m.wait.reads.addQuery(q)
	r.mu.Lock()
	m.query = q
	m.state = stateBlocked
	r.active--
	r.cond.Broadcast()
	r.mu.Unlock()

	// A blocked transaction does not occupy a connection: the run-based
	// scheduler exists precisely so waiting transactions do not tie up
	// system resources (§4, Scheduling).
	r.e.releaseConn()
	msg := <-m.answerCh
	r.e.acquireConn()

	if msg.abortRun {
		panic(unwindRetry)
	}
	return msg.answer
}
