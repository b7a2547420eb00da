package entangle

import (
	"errors"
	"fmt"

	"repro/internal/eq"
	"repro/internal/sql"
	"repro/internal/txn"
)

// Interactive sessions: statement-at-a-time classical transactions, the
// §4 "interactive" mode for non-entangled work. Entangled queries remain
// non-interactive — a transaction that coordinates must be submitted whole
// (SubmitScript / Submit) so the run scheduler can manage its blocking and
// retries; the paper likewise defers interactive entanglement to future
// work.
//
//	s := db.Interactive()
//	s.Exec("BEGIN TRANSACTION")
//	s.Exec("INSERT INTO Flights VALUES (200, '2011-06-01', 'SF')")
//	s.Exec("SELECT fno FROM Flights WHERE dest='SF'")
//	s.Exec("COMMIT")

// ErrInteractiveEntangle is returned when an interactive session poses an
// entangled query.
var ErrInteractiveEntangle = errors.New("entangle: entangled queries are not interactive; submit the whole transaction via SubmitScript")

// InteractiveSession executes statements one at a time. Outside a
// transaction block each statement autocommits; between BEGIN and
// COMMIT/ROLLBACK statements share one classical transaction under Strict
// 2PL. Host variables (@x) persist for the lifetime of the session.
// Not safe for concurrent use.
type InteractiveSession struct {
	db      *DB
	session *sql.Session
	tx      *txn.Txn // non-nil inside an open transaction block
}

// Interactive opens a session.
func (db *DB) Interactive() *InteractiveSession {
	return &InteractiveSession{db: db, session: sql.NewSession()}
}

// InTransaction reports whether a transaction block is open.
func (s *InteractiveSession) InTransaction() bool { return s.tx != nil }

// classicalTx adapts txn.Txn to the sql executor's DataTx, rejecting
// entangled queries.
type classicalTx struct {
	*txn.Txn
}

func (c classicalTx) Entangle(q *eq.Query) *eq.Answer {
	return &eq.Answer{Status: eq.Errored, Err: ErrInteractiveEntangle}
}

// Exec executes one statement (or a semicolon-separated batch) and returns
// the last result. BEGIN/COMMIT/ROLLBACK control the transaction block.
// A statement error inside a block aborts the transaction, as a DBMS
// client would experience after a failed statement followed by ROLLBACK.
func (s *InteractiveSession) Exec(src string) (*Result, error) {
	stmts, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		res, err := s.execOne(st)
		if err != nil {
			return nil, err
		}
		if res != nil {
			last = res
		}
	}
	return last, nil
}

func (s *InteractiveSession) execOne(st sql.Stmt) (*Result, error) {
	switch stmt := st.(type) {
	case *sql.BeginStmt:
		if s.tx != nil {
			return nil, fmt.Errorf("entangle: transaction already open")
		}
		// An open interactive block is one unit of work against the
		// checkpoint quiescence gate: a checkpoint waits for COMMIT or
		// ROLLBACK, so this transaction's commit never lands in the middle
		// of a checkpoint's snapshot.
		s.db.txm.Enter()
		tx, err := s.db.engine.BeginClassical()
		if err != nil {
			s.db.txm.Exit()
			return nil, err
		}
		s.tx = tx
		return &Result{}, nil
	case *sql.CommitStmt:
		if s.tx == nil {
			return nil, fmt.Errorf("entangle: COMMIT outside a transaction")
		}
		err := s.tx.Commit()
		s.tx = nil
		s.db.txm.Exit()
		return &Result{}, err
	case *sql.RollbackStmt:
		if s.tx == nil {
			return nil, fmt.Errorf("entangle: ROLLBACK outside a transaction")
		}
		err := s.tx.Abort()
		s.tx = nil
		s.db.txm.Exit()
		return &Result{}, err
	case *sql.CreateTableStmt, *sql.CreateIndexStmt:
		if s.tx != nil {
			return nil, fmt.Errorf("entangle: DDL inside a transaction block is not supported")
		}
		return &Result{}, sql.ExecDDL(s.db.txm, st)
	case *sql.EntangledSelectStmt:
		return nil, ErrInteractiveEntangle
	default:
		if s.tx != nil {
			res, err := s.session.Exec(classicalTx{s.tx}, s.db.cat, st)
			if err != nil {
				// Statement failure poisons the block: roll back.
				s.tx.Abort()
				s.tx = nil
				s.db.txm.Exit()
				return nil, err
			}
			return res, nil
		}
		return s.db.execStmt(s.session, stmt, 0)
	}
}

// Close rolls back any open transaction block.
func (s *InteractiveSession) Close() error {
	if s.tx != nil {
		err := s.tx.Abort()
		s.tx = nil
		s.db.txm.Exit()
		return err
	}
	return nil
}
