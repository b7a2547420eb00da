// Package core implements entangled transactions — the paper's primary
// contribution. It provides the non-interactive, run-based execution model
// of §4 on top of the classical transaction substrate:
//
//   - Programs are submitted with a timeout and enter a dormant pool.
//   - The scheduler forms runs (one run per f arrivals, the run frequency
//     knob of §5.2.2) and executes their transactions concurrently, each
//     in its own goroutine under Strict 2PL: an arrival's run only what
//     the arrivals can entangle with, the tick every pooled transaction.
//   - A transaction that poses an entangled query blocks; when every
//     member of the run is blocked, ready to commit, or aborted, the
//     scheduler evaluates all pending entangled queries together
//     (internal/eq), delivers answers, and resumes the answered
//     transactions. This repeats until quiescent.
//   - Entanglement groups (transitive closure of entanglement partners)
//     commit atomically — group commit — which prevents the widowed
//     transaction anomaly of §3.3.1. Blocked transactions are aborted and
//     returned to the pool for the next run; transactions whose timeout
//     expired leave the system with ErrTimeout.
//
// Grounding is lock-free: each evaluation round pins one MVCC snapshot and
// every pending query grounds against it, so the read path of query
// evaluation never touches the lock manager. Quasi-read repeatability
// (§3.3.3) is then enforced at the locking isolation levels by taking
// shared table locks on the grounded tables when answers are delivered —
// own and partners' — and validating that no foreign commit touched them
// since the round snapshot (stale groundings abort and retry). At
// SnapshotIsolated no read locks exist at all; write conflicts resolve
// first-committer-wins.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/eq"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// Isolation selects the entangled isolation level (§3.3, §4).
type Isolation int

// Entangled isolation levels.
const (
	// FullEntangled is the §3.3 default: Strict 2PL, quasi-read locks, and
	// group commit. Schedules produced at this level are entangled-isolated.
	FullEntangled Isolation = iota
	// RelaxedReads releases shared locks at statement end (the §4 "altering
	// the length of time locks are held" relaxation) and skips quasi-read
	// locks. Unrepeatable (quasi-)reads become possible.
	RelaxedReads
	// NoWidowGuard keeps Strict 2PL but disables group commit: ready
	// transactions commit even if an entanglement partner aborts, exposing
	// the widowed-transaction anomaly. For ablation and anomaly tests only.
	NoWidowGuard
	// SnapshotIsolated runs members at snapshot isolation: reads (ordinary
	// and grounding) go through CSN snapshots and take no locks at all;
	// writes keep exclusive locks with first-committer-wins conflict
	// detection; group commit stays on. Entangled answers advance the
	// member's snapshot to the evaluation round's, so post-answer reads
	// agree with the state the answer was computed against. Dirty reads
	// are impossible, and reads are repeatable between entangled queries —
	// an answered Entangle is a deliberate snapshot boundary, so a re-read
	// across it may observe the newer round state. Write skew is possible
	// (classic SI).
	SnapshotIsolated
)

// isolationPolicy is what an Isolation level means to the commit path. The
// levels are rows of one table, not branches through the path: the engine
// looks its row up once and every stage reads the column it needs.
type isolationPolicy struct {
	name string
	// level is the substrate isolation member transactions begin at.
	level txn.IsolationLevel
	// quasiLocks enforces repeatable (quasi-)reads (§3.3.3): answered
	// members take shared locks on the grounded tables and validate them
	// against the round snapshot. RelaxedReads opts out by definition;
	// SnapshotIsolated relies on snapshots plus first-committer-wins.
	quasiLocks bool
	// widowGuard commits entanglement groups all-or-nothing (§3.3.1).
	widowGuard bool
}

var isolationPolicies = [...]isolationPolicy{
	FullEntangled:    {"FULL-ENTANGLED", txn.Serializable, true, true},
	RelaxedReads:     {"RELAXED-READS", txn.ReadCommitted, false, true},
	NoWidowGuard:     {"NO-WIDOW-GUARD", txn.Serializable, true, false},
	SnapshotIsolated: {"SNAPSHOT-ISOLATED", txn.SnapshotIsolation, false, true},
}

// policy returns the level's row; unknown levels get the default's.
func (i Isolation) policy() isolationPolicy {
	if i < 0 || int(i) >= len(isolationPolicies) {
		return isolationPolicies[FullEntangled]
	}
	return isolationPolicies[i]
}

func (i Isolation) String() string {
	if i < 0 || int(i) >= len(isolationPolicies) {
		return fmt.Sprintf("Isolation(%d)", int(i))
	}
	return isolationPolicies[i].name
}

// Program is one entangled (or classical) transaction: a body executed
// against a Tx, plus the §3.1 timeout that bounds how long the transaction
// may wait in the system for entanglement partners.
type Program struct {
	// Name labels the program in stats and errors.
	Name string
	// Timeout is the maximum total time the transaction may spend in the
	// system (dormant and running) before failing with ErrTimeout. Zero
	// uses the engine default.
	Timeout time.Duration
	// Autocommit runs the body non-transactionally: every statement is its
	// own committed transaction and entangled queries hold no locks after
	// evaluation. This is the paper's -Q workload mode ("the same code
	// without enclosing it within a transaction block").
	Autocommit bool
	// NoLatency exempts this program from Options.StmtLatency simulation
	// (bulk loading, administrative programs).
	NoLatency bool
	// Trace is the lifecycle trace id stamped on this program's spans
	// (minted by the network client, or by the DB layer when embedded).
	// Zero — the default — records nothing and costs nothing.
	Trace uint64
	// Body is the transaction logic. It may call Tx.Entangle any number of
	// times; calls block until the query is answered in some run. Returning
	// nil makes the transaction ready to commit; returning an error rolls
	// it back permanently.
	Body func(tx *Tx) error
}

// Errors reported in Outcome.Err.
var (
	// ErrTimeout: the §3.1 transaction timeout expired before the
	// transaction could complete (typically: no entanglement partner
	// arrived).
	ErrTimeout = errors.New("core: transaction timeout expired waiting for entanglement")
	// ErrEngineClosed: the engine shut down while the transaction was
	// pending.
	ErrEngineClosed = errors.New("core: engine closed")
	// ErrRolledBack: the body requested rollback.
	ErrRolledBack = errors.New("core: transaction rolled back by program")
	// ErrDraining: the engine was draining for shutdown and the transaction
	// could not complete in the final runs it was given (typically: its
	// entanglement partner never arrived). Reported with StatusTimedOut —
	// drain deterministically cuts the §3.1 timeout short.
	ErrDraining = errors.New("core: engine draining; transaction aborted before completion")
	// ErrSubmitQueueFull: the arrival queue (64k entries) is saturated; the
	// submission is refused rather than blocking the caller inside the
	// engine lock.
	ErrSubmitQueueFull = errors.New("core: submission queue full")
)

// Status is the final disposition of a submitted program.
type Status int

// Program dispositions.
const (
	StatusCommitted Status = iota
	StatusRolledBack
	StatusTimedOut
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusCommitted:
		return "COMMITTED"
	case StatusRolledBack:
		return "ROLLED-BACK"
	case StatusTimedOut:
		return "TIMED-OUT"
	case StatusFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Outcome is the final result of a program.
type Outcome struct {
	Status   Status
	Err      error
	Attempts int // number of runs the transaction participated in
}

// Handle tracks a submitted program. Wait and Poll are safe for
// concurrent use from multiple goroutines (the network server waits on
// and polls the same handle from different requests).
type Handle struct {
	done  chan Outcome  // the engine sends the outcome exactly once
	fin   chan struct{} // closed once out is settled
	out   Outcome
	trace uint64 // the submitted program's trace id (0 = untraced)
}

func newHandle() *Handle {
	return &Handle{done: make(chan Outcome, 1), fin: make(chan struct{})}
}

// TraceID returns the trace id the program was submitted under (0 when
// untraced). It is the id as minted; after an entanglement merge the
// tracer resolves it to the canonical trace (obs.Tracer.Canonical).
func (h *Handle) TraceID() uint64 { return h.trace }

// settle records the outcome received from done and releases every other
// waiter. Exactly one goroutine can receive from done, so exactly one
// settles.
func (h *Handle) settle(o Outcome) {
	h.out = o
	close(h.fin)
}

// Wait blocks until the program reaches a final state.
func (h *Handle) Wait() Outcome {
	select {
	case o := <-h.done:
		h.settle(o)
	case <-h.fin:
	}
	return h.out
}

// Poll reports the outcome without blocking; ok is false while the
// program is still in flight.
func (h *Handle) Poll() (Outcome, bool) {
	select {
	case o := <-h.done:
		h.settle(o)
		return o, true
	case <-h.fin:
		return h.out, true
	default:
		return Outcome{}, false
	}
}

// internal sentinels for unwinding a program body.
type unwind int

const (
	unwindRetry    unwind = iota // abort, requeue into the dormant pool
	unwindRollback               // abort, finalize as rolled back
)

// Tx is the handle a program body uses for all data access. It wraps the
// substrate transaction (or per-statement autocommit transactions in -Q
// mode). Methods that hit retryable failures — lock deadlock or lock
// timeout, or a run ending while blocked on an entangled query — unwind the
// body via panic; the runner converts this into abort-and-requeue, which is
// the §4 "blocked transactions are aborted and returned to the dormant
// transaction pool" rule. A Tx must only be used from the body's goroutine.
type Tx struct {
	m *member
}

// Scan reads all rows of a table.
func (t *Tx) Scan(table string) ([]types.Tuple, error) {
	return t.m.opScan(table)
}

// ScanIDs reads all rows of a table with their row ids (for UPDATE/DELETE
// by predicate).
func (t *Tx) ScanIDs(table string) ([]storage.RowID, []types.Tuple, error) {
	return t.m.opScanIDs(table)
}

// Lookup returns rows whose columns equal key (row-granular read locks,
// like an index read).
func (t *Tx) Lookup(table string, columns []string, key types.Tuple) ([]types.Tuple, error) {
	return t.m.opLookup(table, columns, key)
}

// LookupIDs is Lookup returning row ids for targeted Update/Delete.
func (t *Tx) LookupIDs(table string, columns []string, key types.Tuple) ([]storage.RowID, []types.Tuple, error) {
	return t.m.opLookupIDs(table, columns, key)
}

// Insert adds a row.
func (t *Tx) Insert(table string, row types.Tuple) (storage.RowID, error) {
	return t.m.opInsert(table, row)
}

// Update replaces the row at id.
func (t *Tx) Update(table string, id storage.RowID, row types.Tuple) error {
	return t.m.opUpdate(table, id, row)
}

// Delete removes the row at id.
func (t *Tx) Delete(table string, id storage.RowID) error {
	return t.m.opDelete(table, id)
}

// Entangle poses an entangled query and blocks until it is answered. An
// empty answer (partners present but no mutually satisfying values —
// Appendix B's "query success with empty result") is returned with
// Answer.Status == eq.EmptyAnswer; the program decides how to proceed.
// If the run ends without an answer (no partner), the transaction is
// aborted and requeued transparently; the body never observes this.
func (t *Tx) Entangle(q *eq.Query) *eq.Answer {
	return t.m.opEntangle(q)
}

// Rollback aborts the transaction permanently (the explicit ROLLBACK
// statement of §3.1). It does not return.
func (t *Tx) Rollback() {
	panic(unwindRollback)
}

// ID returns the substrate transaction id (0 in autocommit mode between
// statements).
func (t *Tx) ID() uint64 {
	if t.m.tx != nil {
		return t.m.tx.ID()
	}
	return 0
}

// Attempt returns how many runs this program has participated in,
// including the current one (1 on first execution). Programs can use it to
// vary behaviour across retries; tests use it to observe requeues.
func (t *Tx) Attempt() int {
	return t.m.entry.attempts
}
