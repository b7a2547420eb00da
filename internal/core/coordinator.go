package core

import (
	"time"

	"repro/internal/eq"
	"repro/internal/txn"
)

// coordinator owns the points where a run interacts with commit scope:
// before each evaluation round (delivering answers prepared elsewhere),
// after each round (exporting unmatched queries), and at end of run (the
// §4 group-commit rules). The in-process engine uses localCoordinator —
// the historical path, byte for byte; a sharded engine swaps in
// distCoordinator, which extends the same rules across processes with a
// two-phase group commit.
type coordinator interface {
	// beforeRound may resume blocked members from externally prepared
	// state. It returns how many members it resumed and the members still
	// blocked (the evaluation round's input).
	beforeRound(r *run, blocked []*member) (resumed int, remaining []*member)
	// afterRound runs once per evaluation round, after local evaluation.
	afterRound(r *run)
	// finalize applies the end-of-run commit/abort rules.
	finalize(r *run)
}

// localCoordinator is the single-process path: no external answers, no
// offers, and the end-of-run rules exactly as §4 states them.
type localCoordinator struct{ e *Engine }

func (lc *localCoordinator) beforeRound(r *run, blocked []*member) (int, []*member) {
	return 0, blocked
}

func (lc *localCoordinator) afterRound(r *run) {}

// finalize applies the §4 end-of-run rules: entanglement groups commit
// atomically iff every member is ready; everyone else aborts and is
// requeued (or finalized if rolled back, failed, or timed out).
func (lc *localCoordinator) finalize(r *run) {
	e := lc.e
	e.bump(e.met.runs)

	// Groups are the closure of the accumulated partner edges. Autocommit
	// members are excluded: they have no commit to coordinate.
	groups := eq.NewDisjointSets(len(r.members))
	if e.policy.widowGuard {
		idx := make(map[*member]int, len(r.members))
		for i, m := range r.members {
			idx[m] = i
		}
		for i, m := range r.members {
			if m.tx == nil {
				continue
			}
			for p := range m.partners {
				if p.tx != nil {
					groups.Union(i, idx[p])
				}
			}
		}
	}

	// Split the groups into commit units (every member ready) and abort
	// groups. All units commit through one batched WAL append — a single
	// group-commit flush for the whole run — instead of one serialized
	// flush per group.
	var units, abortGroups [][]*member
	for _, set := range groups.Sets() {
		group := make([]*member, len(set))
		allReady := true
		for k, i := range set {
			group[k] = r.members[i]
			allReady = allReady && group[k].state == stateReady
		}
		if allReady {
			units = append(units, group)
		} else {
			abortGroups = append(abortGroups, group)
		}
	}
	e.commitUnits(units, false)

	for _, group := range abortGroups {
		// Group cannot commit: every member aborts. Ready members are the
		// averted widows — they roll back because a partner could not
		// commit.
		for _, m := range group {
			switch m.state {
			case stateReady:
				if m.tx != nil {
					m.tx.Abort()
				}
				if m.tx != nil || !m.entry.prog.Autocommit {
					e.bump(e.met.widowsAverted)
				}
				e.requeue(m.entry)
			case stateAbortedRetry:
				e.requeue(m.entry)
			case stateRolledBack:
				e.settle(m.entry, e.met.rollbacks, Outcome{Status: StatusRolledBack, Err: ErrRolledBack, Attempts: m.entry.attempts})
			case stateAbortedFinal:
				e.settle(m.entry, e.met.failures, Outcome{Status: StatusFailed, Err: m.finalErr, Attempts: m.entry.attempts})
			}
		}
	}
}

// commitUnits is the one commit routine: it retires commit units — each a
// group of ready members, or with twoPhase the local members of a decided
// cross-shard group — through one batched WAL append, observes the flush,
// counts it, stamps the commit span, and settles every member.
func (e *Engine) commitUnits(units [][]*member, twoPhase bool) {
	note := ""
	if twoPhase {
		note = "2pc"
	}
	// Validate up front so a single stale transaction (an engine-invariant
	// violation, not a runtime condition) fails only its own unit rather
	// than sinking the whole batch. Pure-autocommit units have nothing to
	// commit and always succeed.
	unitErr := make([]error, len(units))
	var txnUnits [][]*txn.Txn
	var batched []int // unit index per txnUnits entry
	for i, u := range units {
		var txns []*txn.Txn
		for _, m := range u {
			if m.tx == nil {
				continue
			}
			txns = append(txns, m.tx)
			if m.tx.State() != txn.Active {
				unitErr[i] = errStaleCommit
			}
		}
		if len(txns) > 0 && unitErr[i] == nil {
			txnUnits = append(txnUnits, txns)
			batched = append(batched, i)
		}
	}
	start := time.Now()
	var dur time.Duration
	if len(txnUnits) > 0 {
		batchErr := e.txm.CommitUnits(txnUnits)
		dur = time.Since(start)
		e.met.commitFlush.Observe(dur)
		if batchErr == nil {
			e.statsMu.Lock()
			e.met.commitBatches.Add(1)
			for _, u := range txnUnits {
				// A cross-shard unit is a group commit however few of the
				// group's members live on this shard.
				if len(u) > 1 || twoPhase {
					e.met.groupCommits.Add(1)
				}
			}
			e.statsMu.Unlock()
		}
		// A failed batched WAL append (I/O error) fails everything behind
		// the flush, as in any group-commit DBMS, and we must not write
		// more: retrying per unit could append valid records past a torn
		// frame mid-log (unrecoverable, where a torn tail is not), and
		// appending Abort records could contradict a commit record the
		// failed batch already made durable. The log itself latches failed
		// on the first write error, so all further durable work fails
		// loudly (fail-stop); the failed units' transactions stay in limbo
		// deliberately — whether their commit record reached disk is
		// indeterminate, so neither undoing in memory nor releasing their
		// locks is safe.
		for _, i := range batched {
			unitErr[i] = batchErr
		}
	}
	for i, u := range units {
		for _, m := range u {
			if t := m.entry.prog.Trace; m.tx != nil {
				e.tracer.Span(t, t, "commit", start, dur, note)
			}
			// A commit failure dooms only the failed unit.
			if unitErr[i] != nil {
				e.settle(m.entry, e.met.failures, Outcome{Status: StatusFailed, Err: unitErr[i], Attempts: m.entry.attempts})
				continue
			}
			e.settle(m.entry, e.met.commits, Outcome{Status: StatusCommitted, Attempts: m.entry.attempts})
		}
	}
}
