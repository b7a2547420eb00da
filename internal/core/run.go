package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/eq"
	"repro/internal/storage"
	"repro/internal/txn"
)

// memberState is the lifecycle of one transaction within a run, matching
// §4: executing, blocked on an entangled query, ready to commit, or
// aborted.
type memberState int

const (
	stateRunning      memberState = iota
	stateBlocked                  // waiting for an entangled-query answer
	stateReady                    // body returned nil; commit pending group decision
	stateAbortedRetry             // aborted; return to the dormant pool
	stateRolledBack               // program-requested rollback (final)
	stateAbortedFinal             // non-retryable error (final)
)

// member is one transaction participating in a run.
type member struct {
	run   *run
	entry *pending
	tx    *txn.Txn // nil in autocommit (-Q) mode

	state    memberState
	query    *eq.Query // pending entangled query when stateBlocked
	answerCh chan answerMsg
	partners map[*member]bool // entanglement partners accumulated this run
	finalErr error
	wait     *waitRecord // this attempt's dependencies; nil under RunDirect

	// Cross-shard scratch (distCoordinator only). A NoPartner evaluation
	// leaves the groundings behind so afterRound can export them as an
	// offer; distGroup marks a member resumed from a matchmaker prepare,
	// committed through the two-phase path instead of the local rules.
	offerGrounds []*eq.Grounding
	offerTables  []string
	offerCSN     uint64
	distGroup    uint64
}

type answerMsg struct {
	answer   *eq.Answer
	abortRun bool // run ended without an answer: abort and requeue
}

// run executes one §4 scheduling run.
type run struct {
	e       *Engine
	direct  bool // RunDirect: no scheduler, entangled queries rejected
	mu      sync.Mutex
	cond    *sync.Cond
	active  int // members in stateRunning
	members []*member
	wg      sync.WaitGroup
	round   int // evaluation rounds so far (scheduler goroutine only)
}

// sentinels classifying how a body unwound.
var (
	errRetrySentinel    = errors.New("core: retryable abort")
	errRollbackSentinel = errors.New("core: rollback")
	errStaleCommit      = errors.New("core: group member no longer active at commit")
)

// executeRun runs a batch of pooled transactions to quiescence: start all
// members, alternate member execution with entangled-query evaluation
// rounds, then commit/abort per the group-commit rules.
func (e *Engine) executeRun(batch []*pending) {
	// One run is one unit of work against the checkpoint quiescence gate:
	// every member transaction begins, logs, and finalizes inside this
	// bracket, so a checkpoint either runs before the whole run or after
	// it — never against a half-committed run.
	e.txm.Enter()
	defer e.txm.Exit()
	r := &run{e: e}
	r.cond = sync.NewCond(&r.mu)
	for _, ent := range batch {
		r.start(ent)
	}

	// Evaluation rounds: once every member is blocked, ready, or aborted,
	// pull in the dormant entries the blocked queries can entangle with, or
	// else evaluate all pending entangled queries together; resume the
	// answered transactions; repeat until a round answers nobody (Figure 4's
	// "the system recognizes that no-one can proceed further"). The
	// coordinator brackets each round: beforeRound resumes members whose
	// answers were prepared elsewhere (cross-shard reservations), afterRound
	// exports the still-unmatched queries. The local coordinator makes both a
	// no-op.
	for {
		r.waitQuiescent()
		blocked := r.blockedMembers()
		if len(blocked) == 0 {
			break
		}
		if r.pull(blocked) {
			continue
		}
		resumed, remaining := e.coord.beforeRound(r, blocked)
		if len(remaining) > 0 {
			resumed += e.evaluateQueries(r, remaining)
		}
		e.coord.afterRound(r)
		if resumed == 0 {
			break
		}
	}

	// Abort members still blocked: they return to the dormant pool, keeping
	// what this attempt waited on for the next arrival's selection.
	for _, m := range r.blockedMembers() {
		m.entry.wait = m.wait
		r.resume(m, answerMsg{abortRun: true})
	}
	r.wg.Wait()
	e.coord.finalize(r)
}

// start begins one attempt of a pooled entry as a member of the run: the
// batch and every pulled entry go through here.
func (r *run) start(ent *pending) {
	e := r.e
	ent.attempts++
	ent.wait = nil
	if t := ent.prog.Trace; t != 0 {
		// The submit span covers the pool wait: (re)enqueue to this start.
		e.tracer.Span(t, t, "submit", ent.enqueued, time.Since(ent.enqueued),
			fmt.Sprintf("attempt=%d", ent.attempts))
	}
	m := &member{
		run:      r,
		entry:    ent,
		answerCh: make(chan answerMsg, 1),
		partners: make(map[*member]bool),
		wait:     &waitRecord{csn: e.txm.CSN()},
	}
	r.mu.Lock()
	r.members = append(r.members, m)
	r.active++
	r.mu.Unlock()
	r.wg.Add(1)
	go r.runMember(m)
}

// pull starts, as members of the run, every dormant pool entry that
// recorded a query able to entangle with a blocked member's query, and
// reports whether it started any. Repeated at every quiescence, it closes
// transitively: a pulled member's own query pulls its partners next.
// Scheduler goroutine only, like the pool.
func (r *run) pull(blocked []*member) bool {
	e := r.e
	kept := e.pool[:0]
	pulled := false
	for _, ent := range e.pool {
		if ent.wait != nil && entanglesAny(ent.wait.queries, blocked) {
			r.start(ent)
			pulled = true
		} else {
			kept = append(kept, ent)
		}
	}
	e.pool = kept
	return pulled
}

// entanglesAny reports whether some recorded query can entangle with some
// blocked member's query.
func entanglesAny(queries []*eq.Query, blocked []*member) bool {
	for _, q := range queries {
		for _, m := range blocked {
			if eq.CanEntangle(q, m.query) {
				return true
			}
		}
	}
	return false
}

func (r *run) waitQuiescent() {
	r.mu.Lock()
	for r.active > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// resume hands a blocked member its answer — or, with abortRun, the order
// to unwind into abortedRetry — and counts it running again.
func (r *run) resume(m *member, msg answerMsg) {
	r.mu.Lock()
	m.state = stateRunning
	m.query = nil
	r.active++
	r.mu.Unlock()
	m.answerCh <- msg
}

func (r *run) blockedMembers() []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*member
	for _, m := range r.members {
		if m.state == stateBlocked {
			out = append(out, m)
		}
	}
	return out
}

// runMember executes one member's body on its own goroutine.
func (r *run) runMember(m *member) {
	defer r.wg.Done()
	e := r.e
	e.acquireConn()
	defer e.releaseConn()

	if !m.entry.prog.Autocommit {
		tx, err := e.txm.Begin(e.policy.level)
		if err != nil {
			m.finalErr = err
			r.setDone(m, stateAbortedFinal)
			return
		}
		m.tx = tx
	}

	err := runBody(m)
	var st memberState
	switch {
	case err == nil:
		st = stateReady
	case errors.Is(err, errRetrySentinel):
		st = stateAbortedRetry
	case errors.Is(err, errRollbackSentinel):
		st = stateRolledBack
		m.finalErr = ErrRolledBack
	default:
		st = stateAbortedFinal
		m.finalErr = err
	}
	if st != stateReady && m.tx != nil {
		m.tx.Abort()
	}
	r.setDone(m, st)
}

// runBody invokes the program body, converting unwind panics into
// sentinel errors.
func runBody(m *member) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if u, ok := p.(unwind); ok {
				if u == unwindRetry {
					err = errRetrySentinel
				} else {
					err = errRollbackSentinel
				}
				return
			}
			panic(p)
		}
	}()
	return m.entry.prog.Body(&Tx{m: m})
}

// setDone records a terminal member state and wakes the scheduler.
func (r *run) setDone(m *member, st memberState) {
	r.mu.Lock()
	m.state = st
	r.active--
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (e *Engine) acquireConn() { e.conns <- struct{}{} }
func (e *Engine) releaseConn() { <-e.conns }

// round is one evaluation round's shared state: the blocked members, the
// snapshot they all ground against, and what each stage learned.
type round struct {
	r       *run
	blocked []*member
	view    storage.Snapshot // the round's pinned snapshot
	res     *eq.Result
	stale   []bool // per blocked member: validation failed, abort and retry
	note    string // span note; set only when lifecycle tracing is on
}

// evaluateQueries runs one entangled-query evaluation round over the
// blocked members — ground, solve, validate, deliver — and resumes everyone
// who received an answer (including empty answers, per Appendix B). It
// returns the number of resumed members.
//
// The round pins ONE storage snapshot and every pending query grounds
// against it — no shared locks, no short-lived grounding transactions, no
// lock-manager traffic on the read path. Determinism is preserved because
// a fixed snapshot is a stronger fixed point than the old blocked-members
// argument: even commits from outside the run cannot shift the view
// mid-round. At the locking isolation levels the answered members then
// take shared locks on the grounded tables and validate that no foreign
// commit touched them since the snapshot, which restores the §3.3.3
// repeatable quasi-read guarantee end to end; a member whose validation
// fails aborts and retries in a later run, exactly like a deadlock victim.
func (e *Engine) evaluateQueries(r *run, blocked []*member) int {
	e.bump(e.met.evalRounds)
	r.round++
	snap := e.txm.AcquireSnapshot()
	defer snap.Release()
	rd := &round{r: r, blocked: blocked, view: snap.View, stale: make([]bool, len(blocked))}
	if e.tracer != nil {
		rd.note = fmt.Sprintf("round=%d", r.round)
	}
	rd.groundAndSolve()
	for _, comp := range rd.res.Components {
		rd.validate(comp)
	}
	return rd.deliver()
}

// groundAndSolve grounds every blocked member's query against the round
// snapshot and searches for the coordinating set.
func (rd *round) groundAndSolve() {
	e := rd.r.e
	cat := e.txm.Catalog()
	pendings := make([]eq.Pending, len(rd.blocked))
	for i, m := range rd.blocked {
		view := rd.view
		if m.tx != nil {
			// A member grounds against the round snapshot plus its own
			// uncommitted writes.
			view.Self = m.tx.ID()
		}
		pendings[i] = eq.Pending{ID: i, Query: m.query, Reader: &groundReader{
			view:    view,
			tx:      m.tx,
			trace:   e.opts.Trace,
			cat:     cat,
			indexed: e.met.indexedGroundings,
		}}
	}
	e.bumpN(e.met.groundings, int64(len(pendings)))
	start := time.Now()
	res := e.eval.Evaluate(pendings, e.evalOpts)
	rd.res = res
	e.bumpN(e.met.solveSteps, int64(res.Solve.Steps))
	if res.Solve.Exhausted {
		e.bump(e.met.solveFallbacks)
	}
	e.met.groundRound.Observe(res.GroundDur)
	e.met.solveRound.Observe(res.SolveDur)

	// Every traced member that went through this round's grounding and
	// search gets ground + solve spans (the stage work is shared; the spans
	// attribute its wall time to each waiter).
	if e.tracer != nil {
		for _, m := range rd.blocked {
			t := m.entry.prog.Trace
			e.tracer.Span(t, t, "ground", start, res.GroundDur, rd.note)
			e.tracer.Span(t, t, "solve", start.Add(res.GroundDur), res.SolveDur, rd.note)
		}
	}
}

// validate turns one answered component into an entanglement operation:
// the members' lifecycle traces merge, mutual partnership is recorded for
// group commit, and at the locking levels the component's grounding reads
// are made repeatable. Members that fail are marked stale; deliver aborts
// them.
func (rd *round) validate(comp []int) {
	e := rd.r.e
	start := time.Now()
	members := make([]*member, len(comp))
	var txIDs, traces []uint64
	for k, i := range comp {
		m := rd.blocked[i]
		members[k] = m
		if m.tx != nil {
			txIDs = append(txIDs, m.tx.ID())
		}
		if t := m.entry.prog.Trace; t != 0 {
			traces = append(traces, t)
		}
	}
	// Entangled queries share one fate from here on; their lifecycle traces
	// merge too — one trace id (the smallest) now carries every member's
	// spans, each still attributed to its original actor.
	if len(traces) > 1 {
		e.tracer.Merge(traces)
	}
	opID := e.nextOpID()
	for _, m := range members {
		for _, p := range members {
			if m != p {
				m.partners[p] = true
			}
		}
	}
	if e.policy.quasiLocks {
		// Quasi-read locks (§3.3.3): every participant locks the union of
		// the component's grounded tables — its own (the locks its
		// grounding reads would have held under 2PL, acquired post hoc)
		// and its partners', including tables grounded by autocommit
		// members, whose answers partners consumed all the same. A lock
		// that is not free at once, like a stale grounding, aborts the
		// whole component (like deadlock victims, invisible to the
		// program), which releases its locks and retries in a later run.
		reads := &readSet{}
		for _, m := range members {
			reads.addQuery(m.query)
		}
		for k, i := range comp {
			if e.lockAndValidate(members[k].tx, reads, rd.view.CSN) != nil {
				for _, i := range comp {
					rd.stale[i] = true
				}
				break
			}
			if sink := e.opts.Trace; sink != nil && members[k].tx != nil {
				for _, j := range comp {
					if j != i {
						for _, table := range rd.res.GroundTables[j] {
							sink.QuasiRead(members[k].tx.ID(), table)
						}
					}
				}
			}
		}
	}
	if sink := e.opts.Trace; sink != nil {
		sink.Entangle(opID, txIDs)
	}
	// The validate span covers quasi-read locks and round-snapshot
	// validation, on every traced member of the component.
	d := time.Since(start)
	for _, i := range comp {
		note := rd.note
		if rd.stale[i] {
			note += " stale"
		}
		t := rd.blocked[i].entry.prog.Trace
		e.tracer.Span(t, t, "validate", start, d, note)
	}
}

// deliver resumes the round's members. Empty answers resume the
// transaction too; NoPartner and Errored members stay blocked for the next
// round or the end of the run. Empty answers at the locking levels also
// lock-and-validate the member's own grounded tables — the member proceeds
// on the strength of "no partner values existed", which must stay true to
// commit.
func (rd *round) deliver() int {
	e := rd.r.e
	resumed := 0
	for i, m := range rd.blocked {
		a := rd.res.Answers[i]
		if a == nil {
			continue
		}
		tables := rd.res.GroundTables[i]
		switch a.Status {
		case eq.NoPartner:
			if e.dist != nil && m.tx != nil {
				// No local partner: remember what this round computed so the
				// coordinator can offer the query to the matchmaker.
				// The groundings are copied out of the evaluator's arena,
				// which the next round reuses: the offer outlives the round.
				m.offerGrounds, m.offerTables, m.offerCSN = eq.CloneGroundings(rd.res.Groundings[i]), tables, rd.view.CSN
			}
			continue
		case eq.Errored:
			continue
		case eq.EmptyAnswer:
			if e.policy.quasiLocks && m.tx != nil && e.lockAndValidate(m.tx, readsOf(m.query), rd.view.CSN) != nil {
				rd.stale[i] = true
			}
		}
		resumed++ // progress either way: the member leaves the blocked set
		if rd.stale[i] {
			rd.r.resume(m, answerMsg{abortRun: true})
			continue
		}
		if m.tx != nil {
			// A snapshot-isolated member's later reads should agree with the
			// state its answer was computed against: advance its snapshot to
			// the round's.
			m.tx.RefreshSnapshot(rd.view)
		}
		rd.r.resume(m, answerMsg{answer: a})
	}
	return resumed
}

// errStaleGrounding reports that the answer's grounding reads cannot be made
// repeatable: a commit newer than the snapshot it was computed at changed a
// column it read, or a quasi-read lock was not free. The answer is void.
var errStaleGrounding = errors.New("core: grounded column changed since the answer's snapshot")

// lockAndValidate makes the grounding reads behind an answer repeatable
// for tx: at the locking levels it takes shared locks on the read tables,
// then it checks that no commit newer than csn changed a read column — the
// locks only freeze the tables from now on, and a foreign commit that
// slipped in between the snapshot and the locks voids the answer
// (errStaleGrounding) if it changed what the answer read. The answered
// component, the empty answer and a cross-shard reservation all go through
// here. Locks stay table-level; only the staleness check is column-level.
// The locks are taken without waiting — the scheduler goroutine never
// sleeps in the lock manager (DESIGN.md, "Scheduler") — and a lock that is
// not free at once is errStaleGrounding.
func (e *Engine) lockAndValidate(tx *txn.Txn, reads *readSet, csn uint64) error {
	if tx != nil && e.policy.quasiLocks {
		for _, table := range reads.tables {
			if err := tx.LockTableShared(table); err != nil {
				return fmt.Errorf("%w: %w", errStaleGrounding, err)
			}
		}
	}
	if reads.changedSince(e.txm.Catalog(), csn) {
		return errStaleGrounding
	}
	return nil
}
