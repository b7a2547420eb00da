package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/txn"
)

// ErrDirectEntangle is returned when a directly-run program poses an
// entangled query — coordination requires the run scheduler.
var ErrDirectEntangle = errors.New("core: entangled queries require Submit, not RunDirect")

// RunDirect executes a program immediately on the calling goroutine,
// bypassing the run scheduler — the classical path: the paper's prototype
// sends non-entangled transactions straight to the DBMS. Retryable aborts
// (deadlock victims) are retried until the program timeout. Programs run
// this way must not pose entangled queries.
//
// With Program.Autocommit set this is the paper's non-transactional -Q
// mode: every statement commits individually.
func (e *Engine) RunDirect(p Program) Outcome {
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = e.opts.DefaultTimeout
	}
	start := time.Now()
	ent := &pending{prog: p, deadline: e.opts.Clock.Now().Add(timeout)}

	for {
		o, done := e.runDirectOnce(p, ent)
		if done {
			e.met.execLatency.Observe(time.Since(start))
			// Record the exec span but do NOT finish the trace: a traced
			// direct program is one statement of a larger traced request
			// (DB.ExecTraced runs a whole script under one id), so the
			// layer that minted the id owns its Finish.
			if t := p.Trace; t != 0 {
				e.tracer.Span(t, t, "exec", start, time.Since(start),
					fmt.Sprintf("status=%v attempts=%d", o.Status, ent.attempts))
			}
			return o
		}
	}
}

// runDirectOnce performs one attempt of RunDirect. It reports done=false
// when the attempt hit a retryable abort and should be retried.
func (e *Engine) runDirectOnce(p Program, ent *pending) (Outcome, bool) {
	ent.attempts++
	// A direct run never blocks on an entangled answer (opEntangle refuses
	// before touching run state), so the coordination fields — cond,
	// active, answerCh, partners — stay zero: this path runs once per
	// classical statement script, and four dead allocations per op are
	// measurable at wire speed.
	r := &run{e: e, direct: true}
	m := &member{run: r, entry: ent}
	r.members = []*member{m}

	e.acquireConn()
	var beginErr error
	if !p.Autocommit {
		m.tx, beginErr = e.txm.Begin(e.policy.level)
	}
	var err error
	if beginErr != nil {
		err = beginErr
	} else {
		err = runBody(m)
	}
	e.releaseConn()

	switch {
	case err == nil:
		if m.tx != nil {
			if cerr := m.tx.Commit(); cerr != nil {
				e.bump(e.met.failures)
				return Outcome{Status: StatusFailed, Err: cerr, Attempts: ent.attempts}, true
			}
		}
		e.bump(e.met.commits)
		return Outcome{Status: StatusCommitted, Attempts: ent.attempts}, true
	case errors.Is(err, errRetrySentinel):
		if m.tx != nil {
			m.tx.Abort()
		}
		if !e.opts.Clock.Now().Before(ent.deadline) {
			e.bump(e.met.timeouts)
			return Outcome{Status: StatusTimedOut, Err: ErrTimeout, Attempts: ent.attempts}, true
		}
		e.bump(e.met.requeues)
		return Outcome{}, false
	case errors.Is(err, errRollbackSentinel):
		if m.tx != nil {
			m.tx.Abort()
		}
		e.bump(e.met.rollbacks)
		return Outcome{Status: StatusRolledBack, Err: ErrRolledBack, Attempts: ent.attempts}, true
	default:
		if m.tx != nil {
			m.tx.Abort()
		}
		e.bump(e.met.failures)
		return Outcome{Status: StatusFailed, Err: err, Attempts: ent.attempts}, true
	}
}

// BeginClassical starts a bare classical transaction without the Program
// wrapper, for an interactive session's BEGIN block.
func (e *Engine) BeginClassical() (*txn.Txn, error) {
	return e.txm.Begin(e.policy.level)
}
