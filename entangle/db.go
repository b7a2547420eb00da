// Package entangle is the public API of the entangled-transactions engine —
// a from-scratch Go implementation of "Entangled Transactions" (Gupta,
// Nikolic, Roy, Bender, Kot, Gehrke, Koch; PVLDB 4(7), 2011).
//
// A DB bundles the full stack: multi-version (MVCC) heap storage with hash
// indexes and CSN-stamped version chains, a hierarchical lock manager for
// write serialization (plus read locks at the 2PL isolation levels), a
// write-ahead log with entanglement-aware crash recovery, classical ACID
// transactions (Serializable, ReadCommitted, and lock-free-read
// SnapshotIsolation), the entangled-query evaluator grounding against
// per-round snapshots, and the run-based entangled transaction scheduler
// with group commit.
//
// Quick start:
//
//	db, _ := entangle.Open(entangle.Options{})
//	defer db.Close()
//	db.ExecDDL(`CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR)`)
//	db.Exec(`INSERT INTO Flights VALUES (122, '2011-05-03', 'LA')`)
//
//	h1, _ := db.SubmitScript(mickeyScript)  // BEGIN ... INTO ANSWER ... COMMIT
//	h2, _ := db.SubmitScript(minnieScript)
//	fmt.Println(h1.Wait().Status, h2.Wait().Status)
//
// Programs can also be written directly in Go against core.Tx via Submit.
package entangle

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// Re-exported names so that typical applications only import this package
// (plus internal/eq and internal/types for hand-built queries and values).
type (
	// Program is an entangled transaction body with its timeout.
	Program = core.Program
	// Tx is the handle a program body uses for data access.
	Tx = core.Tx
	// Handle awaits a submitted program's outcome.
	Handle = core.Handle
	// Outcome is a program's final disposition.
	Outcome = core.Outcome
	// Stats are the engine counters.
	Stats = core.Stats
	// Isolation selects the entangled isolation level.
	Isolation = core.Isolation
	// Options configures Open: the storage substrate (Path, SyncWAL,
	// Faults) and the engine over it. Every field is declared and
	// documented once, on core.Options.
	Options = core.Options
)

// Isolation levels and statuses, re-exported.
const (
	FullEntangled    = core.FullEntangled
	RelaxedReads     = core.RelaxedReads
	NoWidowGuard     = core.NoWidowGuard
	SnapshotIsolated = core.SnapshotIsolated

	StatusCommitted  = core.StatusCommitted
	StatusRolledBack = core.StatusRolledBack
	StatusTimedOut   = core.StatusTimedOut
	StatusFailed     = core.StatusFailed
)

// DB is an open database.
type DB struct {
	cat      *storage.Catalog
	locks    *lock.Manager
	log      *wal.Log
	txm      *txn.Manager
	engine   *core.Engine
	shapes   *sql.Cache // classical statements compiled once per shape
	path     string
	recovery *wal.RecoveryStats // nil when opened without a WAL
}

// lockWaitTimeout bounds lock waits, like innodb_lock_wait_timeout.
const lockWaitTimeout = 2 * time.Second

// Open creates (or recovers) a database. When Options.Path names an
// existing log/snapshot, the committed state — including the §4
// entanglement-aware group-rollback rule — is recovered before the engine
// starts.
func Open(opts Options) (*DB, error) {
	cat := storage.NewCatalog()
	locks := lock.New(lockWaitTimeout)
	var log *wal.Log
	var recovery *wal.RecoveryStats
	var recoveredCSN uint64
	if opts.Path != "" {
		stats, err := wal.RecoverAll(opts.Path, cat)
		if err != nil {
			return nil, fmt.Errorf("entangle: recovery: %w", err)
		}
		recovery = stats
		recoveredCSN = stats.MaxCSN
		log, err = wal.Open(opts.Path, wal.Options{Sync: opts.SyncWAL, Faults: opts.Faults})
		if err != nil {
			return nil, err
		}
	}
	txm := txn.NewManager(cat, locks, log)
	// New commits must allocate CSNs past everything already recovered, so
	// recovered version order and fresh snapshots stay consistent.
	txm.SeedClock(recoveredCSN)
	if recovery != nil {
		// Fresh transaction ids must not collide with in-doubt predecessors
		// still awaiting their group decision.
		txm.SeedTx(recovery.MaxTx)
	}
	engine := core.NewEngine(txm, opts)
	return &DB{cat: cat, locks: locks, log: log, txm: txm, engine: engine, shapes: sql.NewCache(cat), path: opts.Path, recovery: recovery}, nil
}

// Close stops the engine and closes the log. Pending transactions fail
// with ErrEngineClosed; call Drain first for a graceful shutdown.
func (db *DB) Close() error {
	db.engine.Close()
	if db.log != nil {
		return db.log.Close()
	}
	return nil
}

// Drain gracefully winds the engine down: new submissions are rejected,
// pooled transactions get final scheduling runs until everything completes
// or no further progress is possible, and the stragglers (transactions
// whose entanglement partner can no longer arrive) are deterministically
// aborted with StatusTimedOut/core.ErrDraining. Returns ctx.Err() if the
// deadline cut the drain short. Call Close afterwards to release the
// engine and the log; the server's SIGTERM path does exactly that.
func (db *DB) Drain(ctx context.Context) error { return db.engine.Drain(ctx) }

// Engine exposes the entangled transaction engine.
func (db *DB) Engine() *core.Engine { return db.engine }

// Catalog exposes the table catalog.
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// Stats returns engine counters.
func (db *DB) Stats() Stats { return db.engine.Stats() }

// ExecDDL runs CREATE TABLE / CREATE INDEX statements (semicolon-separated
// script allowed).
func (db *DB) ExecDDL(script string) error {
	stmts, err := sql.Parse(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if err := sql.ExecDDL(db.txm, st); err != nil {
			return err
		}
	}
	return nil
}

// Result is a query result.
type Result = sql.Result

// Exec runs a single classical statement (or bare script) directly,
// outside the run scheduler, and returns the last statement's result.
// INSERT/UPDATE/DELETE statements each commit individually (autocommit),
// matching a direct client connection. With Options.Tracer set, the whole
// call runs under one freshly minted trace id.
func (db *DB) Exec(script string) (*Result, error) {
	return db.ExecTraced(script, db.mintTrace())
}

// ExecTraced is Exec under a caller-supplied trace id (0 = untraced) —
// the server passes the id that arrived on the wire so the trace spans
// the full request. The id's lifecycle belongs to this call: the trace is
// finished when it returns. A classical statement whose shape ran before
// is neither parsed nor compiled again (sql.Cache).
func (db *DB) ExecTraced(script string, trace uint64) (*Result, error) {
	tracer := db.engine.Tracer()
	var parseStart time.Time
	if trace != 0 {
		parseStart = time.Now()
		tracer.Begin(trace, parseStart)
		defer tracer.Finish(trace, time.Now())
	}
	stmts, err := db.shapes.Parse(script)
	if trace != 0 {
		note := ""
		if err != nil {
			note = "error"
		}
		tracer.Span(trace, trace, "parse", parseStart, time.Since(parseStart), note)
	}
	if err != nil {
		return nil, err
	}
	var session sql.Session
	var last *Result
	for i := range stmts {
		st := &stmts[i]
		switch st.Stmt.(type) {
		case *sql.CreateTableStmt, *sql.CreateIndexStmt:
			if err := sql.ExecDDL(db.txm, st.Stmt); err != nil {
				return nil, err
			}
			continue
		case *sql.EntangledSelectStmt:
			return nil, fmt.Errorf("entangle: entangled queries require SubmitScript")
		}
		if last, err = db.execStmt(&session, st, trace); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// execStmt runs one classical statement as its own direct transaction, the
// one path of every statement outside a BEGIN block: a deadlock victim is
// retried, and the statement counts in Stats().Commits and exec_latency.
func (db *DB) execStmt(session *sql.Session, st *sql.Statement, trace uint64) (*Result, error) {
	var res *Result
	o := db.engine.RunDirect(core.Program{Trace: trace, Body: func(tx *core.Tx) error {
		var err error
		res, err = session.Run(tx, st)
		return err
	}})
	if o.Status != core.StatusCommitted {
		if o.Err != nil {
			return nil, o.Err
		}
		return nil, fmt.Errorf("entangle: statement %v", o.Status)
	}
	return res, nil
}

// Query runs a single SELECT and returns its rows.
func (db *DB) Query(src string) (*Result, error) { return db.Exec(src) }

// Submit queues a Go-level entangled transaction.
func (db *DB) Submit(p Program) *Handle { return db.engine.Submit(p) }

// RunDirect executes a non-entangled program immediately (the classical
// path). A program submitted here with a nonzero Trace has its trace
// finished on return.
func (db *DB) RunDirect(p Program) Outcome {
	o := db.engine.RunDirect(p)
	if p.Trace != 0 {
		db.engine.Tracer().Finish(p.Trace, time.Now())
	}
	return o
}

// SubmitScript compiles a SQL script and routes it appropriately: scripts
// wrapped in BEGIN TRANSACTION go through the entangled scheduler; bare
// scripts run as autocommit programs through the scheduler too (so their
// entangled queries, if any, can coordinate). With Options.Tracer set,
// the submission mints a trace id; Handle outcomes finish the trace.
func (db *DB) SubmitScript(script string) (*Handle, error) {
	return db.SubmitScriptTraced(script, db.mintTrace())
}

// SubmitScriptTraced is SubmitScript under a caller-supplied trace id
// (0 = untraced). Compilation is recorded as the trace's parse span; the
// engine records the remaining lifecycle and finishes the trace when the
// program settles.
func (db *DB) SubmitScriptTraced(script string, trace uint64) (*Handle, error) {
	tracer := db.engine.Tracer()
	var parseStart time.Time
	if trace != 0 {
		parseStart = time.Now()
		tracer.Begin(trace, parseStart)
	}
	prog, err := sql.BuildProgram(db.cat, script)
	if trace != 0 {
		note := ""
		if err != nil {
			note = "error"
		}
		tracer.Span(trace, trace, "parse", parseStart, time.Since(parseStart), note)
		if err != nil {
			// The program never reaches the engine; the trace ends here.
			tracer.Finish(trace, time.Now())
		}
	}
	if err != nil {
		return nil, err
	}
	prog.Trace = trace
	return db.engine.Submit(prog), nil
}

// mintTrace returns a fresh trace id when tracing is enabled, else 0.
func (db *DB) mintTrace() uint64 {
	if db.engine.Tracer() == nil {
		return 0
	}
	return obs.MintID()
}

// Metrics exposes the engine's observability registry (never nil — a
// private registry backs it when Options.Metrics was unset).
func (db *DB) Metrics() *obs.Registry { return db.engine.Metrics() }

// Tracer exposes the lifecycle tracer (nil when tracing is disabled).
func (db *DB) Tracer() *obs.Tracer { return db.engine.Tracer() }

// Vacuum prunes MVCC row versions no active snapshot can reach and
// returns the number of versions reclaimed. The watermark is the oldest
// active snapshot (or the current commit clock when none is active). Each
// pass counts in Stats.Vacuums and Stats.VersionsPruned.
func (db *DB) Vacuum() int { return db.engine.Vacuum() }

// Checkpoint snapshots the database and truncates the log. The checkpoint
// quiesces the transaction manager first: in-flight work (scheduler runs,
// direct transactions, open interactive blocks, DDL) drains while new work
// blocks, so no commit can land between the snapshot scan and the log
// truncation — a racing commit would otherwise be torn across tables in
// the snapshot while its log records were erased. The snapshot header
// records the commit clock, and recovery restarts the clock from
// max(snapshot CSN, log CSNs), so sequence numbers are never reused across
// a checkpointed restart.
//
// Checkpoint blocks until in-flight work drains; an interactive session
// holding an open BEGIN block stalls it (and new work) until that block
// ends. Do NOT call Checkpoint from inside a Program body or an open
// interactive block — it would wait on its own unit of work and deadlock.
func (db *DB) Checkpoint() error {
	if db.log == nil {
		return fmt.Errorf("entangle: no WAL configured")
	}
	return db.txm.Quiesced(func(csn uint64) error {
		return wal.Checkpoint(db.log, db.cat, csn)
	})
}

// Flush synchronously executes one scheduling run (deterministic testing).
func (db *DB) Flush() { db.engine.Flush() }

// Convenience re-exports for building programs in Go.

// Values constructs a tuple.
func Values(vs ...types.Value) types.Tuple { return types.Tuple(vs) }

// Int, Str, Date, Bool build values.
func Int(v int64) types.Value   { return types.Int(v) }
func Str(v string) types.Value  { return types.Str(v) }
func Date(s string) types.Value { return types.MustDate(s) }
func Bool(v bool) types.Value   { return types.Bool(v) }

// Query builders for hand-written entangled queries.

// Atom builds an ANSWER or database atom; use Var and Const for terms.
func Atom(rel string, args ...eq.Term) eq.Atom { return eq.Atom{Rel: rel, Args: args} }

// Var is a query variable term.
func Var(name string) eq.Term { return eq.V(name) }

// Const is a constant term.
func Const(v types.Value) eq.Term { return eq.C(v) }

// EQ is the entangled query type, re-exported.
type EQ = eq.Query
