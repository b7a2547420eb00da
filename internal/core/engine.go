package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/eq"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Options configures a database: the engine built by NewEngine plus the
// storage substrate entangle.Open builds under it. It is the one place an
// option is declared — entangle.Options is this type, and Open hands the
// value it was given straight to NewEngine.
type Options struct {
	// Path is the write-ahead log file. Empty disables durability (pure
	// in-memory engine, as used by benchmarks). Consumed by entangle.Open.
	Path string
	// SyncWAL fsyncs commit records. Consumed by entangle.Open.
	SyncWAL bool
	// Faults, when set, arms the WAL's failpoints from the given registry
	// (see internal/fault). Nil — the default — is zero-overhead. Consumed
	// by entangle.Open.
	Faults *fault.Registry

	// Isolation is the entangled isolation level (default FullEntangled).
	Isolation Isolation
	// RunFrequency f: start a new run once f new transactions have arrived
	// (§5.2.2). Default 1 — a run per arrival, the paper's most eager
	// policy. Such a run re-executes only what the arrivals can entangle with.
	RunFrequency int
	// Connections bounds concurrently executing transactions, modelling the
	// DBMS connection limit the paper identifies as the concurrency cap.
	// Default 100, the paper's default.
	Connections int
	// DefaultTimeout applies to programs that do not set one. Default 10s.
	DefaultTimeout time.Duration
	// RetryInterval is the scheduler's backstop tick: it runs the whole pool
	// (§4's rule), so timeouts expire, a lost cross-shard offer is
	// re-exported, and bodies that depend on Attempt() or the clock retry.
	// Nothing on the commit path waits for it: arrivals pull in their
	// partners, prepares and abort decisions wake theirs. Default 25ms.
	RetryInterval time.Duration
	// StmtLatency simulates the per-statement client-DBMS round trip of the
	// paper's middle-tier-over-MySQL deployment. Zero for tests; the
	// benchmark harness sets it so that throughput is connection-bound, as
	// in Figure 6(a). Applied to every Tx operation.
	StmtLatency time.Duration
	// GroundLatency simulates the per-query grounding round trip to the
	// DBMS during entangled-query evaluation (in the paper's prototype
	// each grounding is a SQL query against MySQL, and evaluation is
	// serialized in the middle tier — so per-run cost grows linearly with
	// the number of pending queries, the effect Figure 6(b) measures).
	// Zero disables the simulation. A round grounds its queries one after
	// another, so it pays the latency once per grounded query.
	GroundLatency time.Duration
	// SolveBudget bounds the exact coordinating-set search per evaluation
	// round, in search nodes (0 = eq.DefaultSolveBudget). A round that
	// exhausts the budget falls back to the greedy closure for the
	// remaining components — valid answers, no longer guaranteed
	// maximum-size — and Stats.SolveFallbacks counts it. Negative skips
	// the exact search entirely and always runs greedy closure (the
	// pre-exact solver, kept for ablation benchmarks).
	SolveBudget int
	// GroundCache is a no-op that no code reads: every blocked query grounds
	// in every round it is evaluated in. The field stays only until the
	// benchmark module stops setting it.
	GroundCache bool
	// Trace receives schedule events (e.g. *isolation.Recorder); nil
	// disables them.
	Trace TraceSink
	// Metrics is the observability registry the engine registers its
	// counters and latency histograms in (see internal/obs). Nil makes the
	// engine create a private registry — Stats/StatsSnapshot always work —
	// that simply is not shared with a /metrics endpoint.
	Metrics *obs.Registry
	// Tracer, when set, enables per-query lifecycle tracing: Exec and
	// SubmitScript mint a trace id per call (parse → submit → ground →
	// solve → validate → commit → answer spans), and traced ids arriving
	// over the wire are honored. Nil — the default — records nothing and
	// keeps the id==0 fast path allocation-free.
	Tracer *obs.Tracer
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.RunFrequency <= 0 {
		out.RunFrequency = 1
	}
	if out.Connections <= 0 {
		out.Connections = 100
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 10 * time.Second
	}
	if out.RetryInterval <= 0 {
		out.RetryInterval = 25 * time.Millisecond
	}
	return out
}

// Stats are cumulative engine counters. The JSON tags are the wire
// vocabulary of the stats frame and equal the obs registry counter names.
type Stats struct {
	Submitted      int64 `json:"submitted"`       // programs submitted
	Runs           int64 `json:"runs"`            // runs executed
	EvalRounds     int64 `json:"eval_rounds"`     // entangled-query evaluation rounds across runs
	Commits        int64 `json:"commits"`         // programs finally committed
	GroupCommits   int64 `json:"group_commits"`   // entanglement groups committed atomically
	CommitBatches  int64 `json:"commit_batches"`  // batched end-of-run WAL commit flushes
	EntangleOps    int64 `json:"entangle_ops"`    // entanglement operations performed
	Requeues       int64 `json:"requeues"`        // aborts that returned a transaction to the pool
	Timeouts       int64 `json:"timeouts"`        // programs expired by their timeout
	Rollbacks      int64 `json:"rollbacks"`       // program-requested rollbacks
	Failures       int64 `json:"failures"`        // programs failed with a non-retryable error
	WidowsAverted  int64 `json:"widows_averted"`  // ready transactions aborted because a group member could not commit
	WriteConflicts int64 `json:"write_conflicts"` // snapshot-isolation first-committer-wins losses (retried)
	Vacuums        int64 `json:"vacuums"`         // version-GC passes (DB.Vacuum)
	VersionsPruned int64 `json:"versions_pruned"` // row versions those passes reclaimed

	GroundCacheHits   int64 `json:"ground_cache_hits"`   // always 0: kept for the stats vocabulary (no grounding cache exists)
	GroundCacheMisses int64 `json:"ground_cache_misses"` // queries grounded: one per blocked member per evaluation round
	IndexedGroundings int64 `json:"indexed_groundings"`  // grounding atom probes served by declared (CREATE INDEX) hash indexes

	GroundRowsStreamed  int64 `json:"ground_rows_streamed"`   // rows pulled through grounding cursors across all rounds
	GroundPeakBatchRows int64 `json:"ground_peak_batch_rows"` // high-water mark of rows resident in one grounding pipeline's batch buffers

	SolveSteps     int64 `json:"solve_steps"`     // coordinating-set search nodes across all evaluation rounds
	SolveFallbacks int64 `json:"solve_fallbacks"` // rounds where the exact search ran out of budget and fell back to greedy closure
}

// pending is a pooled program awaiting (re)execution.
type pending struct {
	prog     Program
	deadline time.Time
	handle   *Handle
	attempts int
	submitAt time.Time // Submit time: answer-latency histogram anchor
	enqueued time.Time // last (re)entry into the pool: submit-span anchor
	offerID  uint64    // stable cross-shard offer id (minted on first export)
	// abortWoken: a group-abort decision already bought this entry an eager
	// retry since its last arrival- or tick-triggered run; the next abort
	// leaves it to the tick. Owned by whoever owns the entry.
	abortWoken bool
	// wait is set while the entry's last run ended with it still blocked
	// (scheduler goroutine only): arrival runs leave such an entry dormant.
	wait *waitRecord
}

// waitRecord is what one attempt depended on: the entangled queries it
// posed, what it read (readSet: the whole of every table its Tx operations
// named, the ReadCols of its query bodies) and the commit clock at its
// start. Until a commit changes something it read, re-running it repeats the
// attempt — unless its body reads Attempt() or the clock.
type waitRecord struct {
	queries []*eq.Query
	reads   readSet
	csn     uint64
}

// note adds a whole table to the record (nil-safe: RunDirect members keep
// none).
func (w *waitRecord) note(table string) {
	if w != nil {
		w.reads.add(table, nil)
	}
}

// changed reports whether a commit changed something the attempt read since
// it started.
func (w *waitRecord) changed(cat *storage.Catalog) bool {
	return w.reads.changedSince(cat, w.csn)
}

// Engine is the entangled transaction manager.
type Engine struct {
	txm    *txn.Manager
	opts   Options
	policy isolationPolicy // opts.Isolation's row of the policy table

	// coord owns the commit path: localCoordinator in-process (the
	// historical behavior), distCoordinator when EnableDist has made this
	// engine one shard of a partitioned deployment.
	coord coordinator
	dist  *distRuntime // nil unless EnableDist

	conns chan struct{} // connection-pool semaphore

	mu       sync.Mutex
	closed   bool
	draining bool
	// woken holds pool entries that an event from another shard (a
	// delivered prepare, an abort decision) made runnable. Any goroutine
	// adds; every batch formation consumes the set, and a turn with neither
	// an arrival nor a tick runs exactly those entries.
	woken map[*pending]bool

	// arrivalq carries submitted programs to the scheduler, which ingests
	// them one at a time between runs — every RunFrequency-th ingested
	// arrival triggers a run synchronously, so runs cannot coalesce and the
	// §5.2.2 run-frequency knob behaves as in the paper.
	arrivalq chan *pending
	// pool is the dormant transaction pool; scheduler-goroutine local.
	pool     []*pending
	arrivals int
	// drainAborted (scheduler-goroutine local) is set once Drain has
	// aborted the pool: any arrival that slipped past the Submit-side
	// draining check (published to arrivalq after the final abort swept the
	// queue) is failed at ingestion instead of pooled, so nothing can run —
	// let alone commit — after Drain returned.
	drainAborted bool

	wake   chan struct{}
	flush  chan chan struct{}
	drainq chan drainMsg
	stop   chan struct{}
	done   chan struct{}
	// requeueq carries pool re-entries from goroutines other than the
	// scheduler (a distributed group decided abort; the members retry).
	// Buffered so an abort decision's deliverer does not wait for a run in
	// progress; the scheduler drains it at the top of every turn.
	requeueq chan *pending

	// statsMu orders program-lifecycle counter increments against Stats
	// snapshots: every submitted/settled transition bumps its registry
	// counter under this lock and Stats reads the whole registry under it,
	// so a snapshot is internally consistent (settled ≤ submitted always
	// holds). Hot-path counters are bumped lock-free outside it.
	statsMu sync.Mutex
	met     *coreMetrics
	tracer  *obs.Tracer

	nextOp uint64 // entanglement operation ids (guarded by statsMu)

	// Grounding hot-path machinery: the streaming pipeline's rows/peak-batch
	// accounting (gauges).
	streamStats eq.StreamStats
	evalOpts    eq.EvalOptions // every round's evaluation options, fixed at NewEngine
	// eval evaluates every round and keeps the round's memory for the next
	// one; only the scheduler goroutine uses it. A round's groundings are
	// valid until the next round, its answers own their memory.
	eval eq.Evaluator
}

// NewEngine builds an engine over a transaction manager.
func NewEngine(txm *txn.Manager, opts Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{
		txm:      txm,
		opts:     o,
		policy:   o.Isolation.policy(),
		conns:    make(chan struct{}, o.Connections),
		arrivalq: make(chan *pending, 1<<16),
		wake:     make(chan struct{}, 1),
		flush:    make(chan chan struct{}),
		drainq:   make(chan drainMsg),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		requeueq: make(chan *pending, 1024),
	}
	e.coord = &localCoordinator{e: e}
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.met = newCoreMetrics(reg, &e.streamStats)
	e.tracer = o.Tracer
	e.evalOpts = eq.EvalOptions{
		GroundLatency: o.GroundLatency,
		SolveBudget:   o.SolveBudget,
		Stream:        &e.streamStats,
		PullDur:       e.met.groundPull,
	}
	if o.Trace != nil {
		txm.SetObserver(&traceObserver{e: e})
	}
	go e.loop()
	return e
}

// Txm exposes the substrate transaction manager (DDL, direct access).
func (e *Engine) Txm() *txn.Manager { return e.txm }

// Stats returns a copy of the cumulative counters: one registry read
// under statsMu, so the lifecycle counters (incremented under the same
// lock) form an internally consistent set.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.met.stats()
}

// Vacuum runs one version-GC pass (txn.Manager.Vacuum), counts it in
// Stats.Vacuums and Stats.VersionsPruned, and returns the versions pruned.
func (e *Engine) Vacuum() int {
	pruned := e.txm.Vacuum()
	e.statsMu.Lock()
	e.met.vacuums.Add(1)
	e.met.versionsPrune.Add(int64(pruned))
	e.statsMu.Unlock()
	return pruned
}

// Submit queues an entangled transaction for execution and returns a
// handle to await its outcome.
func (e *Engine) Submit(p Program) *Handle {
	h := newHandle()
	h.trace = p.Trace
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = e.opts.DefaultTimeout
	}
	now := time.Now()
	ent := &pending{prog: p, deadline: now.Add(timeout), handle: h, submitAt: now, enqueued: now}
	// The enqueue happens under e.mu, the same lock Close and Drain take to
	// flip their flags, so a program is either published before the flag
	// (and swept by the scheduler's shutdown/drain pass) or refused — never
	// stranded in arrivalq with a handle nobody will settle. The send is
	// non-blocking: arrivalq holds 64k entries, and past that failing
	// loudly beats blocking inside the lock. The program is counted and its
	// trace begun before the send: once published, the scheduler may run and
	// settle it before this goroutine runs again.
	e.mu.Lock()
	if e.closed || e.draining {
		e.mu.Unlock()
		h.done <- Outcome{Status: StatusFailed, Err: ErrEngineClosed}
		return h
	}
	e.bump(e.met.submitted)
	if t := p.Trace; t != 0 {
		e.tracer.Begin(t, now)
	}
	select {
	case e.arrivalq <- ent:
		e.mu.Unlock()
	default:
		e.mu.Unlock()
		e.settle(ent, e.met.failures, Outcome{Status: StatusFailed, Err: ErrSubmitQueueFull})
		return h
	}
	e.poke()
	return h
}

// poke asks the scheduler for a turn (any goroutine). One buffered token is
// enough: the scheduler re-reads every queue and the woken set after it.
func (e *Engine) poke() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// wakeEntry puts a dormant entry in the woken set and pokes the scheduler,
// which re-executes it on its next turn without waiting for an arrival or
// the tick. The set is level-triggered: an entry woken while its run is
// still executing is run again as soon as executeRun returns.
func (e *Engine) wakeEntry(ent *pending) {
	e.mu.Lock()
	if e.woken == nil {
		e.woken = make(map[*pending]bool)
	}
	e.woken[ent] = true
	e.mu.Unlock()
	e.poke()
}

// selectBatch splits the pool (scheduler goroutine only) into the run's
// batch and the entries that stay dormant, given the woken set runIfDue
// consumed:
//
//   - force (tick, Flush, Drain): the whole pool, §4's rule;
//   - arrival: every woken entry, every entry without a wait record
//     (arrivals, retry and widow requeues) and every entry something it
//     read changed for since — executeRun pulls in the rest on demand;
//   - neither (a wake): exactly the woken entries.
//
// A woken entry that is not pooled (a run got to it first: it parked or
// settled) is dropped.
func (e *Engine) selectBatch(woken map[*pending]bool, arrival, force bool) (batch, rest []*pending) {
	if force {
		return e.pool, nil
	}
	cat := e.txm.Catalog()
	for _, ent := range e.pool {
		if woken[ent] || arrival && (ent.wait == nil || ent.wait.changed(cat)) {
			batch = append(batch, ent)
		} else {
			rest = append(rest, ent)
		}
	}
	return batch, rest
}

// settle delivers a program's final outcome: lifecycle counter, answer-
// latency observation, trace answer span + finish, then the handle send.
// Every settlement of a submitted program goes through here.
func (e *Engine) settle(ent *pending, c *obs.Counter, o Outcome) {
	e.bump(c)
	now := time.Now()
	if !ent.submitAt.IsZero() {
		e.met.answerLatency.Observe(now.Sub(ent.submitAt))
	}
	if t := ent.prog.Trace; t != 0 {
		e.tracer.Span(t, t, "answer", ent.submitAt, now.Sub(ent.submitAt), "status="+o.Status.String())
		e.tracer.Finish(t, now)
	}
	if e.dist != nil {
		// A settled program can no longer honor a cross-shard reservation:
		// withdraw its offer so a racing prepare is voted down at delivery,
		// and vote down the one it already holds — its partner is parked on
		// another shard, holding locks until the group decides.
		if p := e.dist.forget(ent); p != nil {
			e.dist.voteNo(p.Group, p.Offer)
		}
	}
	ent.handle.done <- o
}

// Flush synchronously executes one run over the currently pooled
// transactions (if any) and returns when it completes. Tests use it for
// deterministic scheduling.
func (e *Engine) Flush() {
	reply := make(chan struct{})
	select {
	case e.flush <- reply:
		<-reply
	case <-e.done:
	}
}

// Close stops the scheduler. Pooled transactions fail with
// ErrEngineClosed. Close waits for the scheduler goroutine to exit.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	<-e.done
}

// loop is the scheduler: it forms runs per the run-frequency policy, runs
// woken entries as soon as they are woken, and on the backstop tick retries
// the whole pool and expires timeouts.
func (e *Engine) loop() {
	defer close(e.done)
	ticker := time.NewTicker(e.opts.RetryInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			if e.dist != nil {
				// Parked in-doubt groups outlive the scheduler: their prepare
				// records stay in the WAL and restart resolves them against
				// the coordinator's decision. The handles fail now.
				e.dist.shutdown()
			}
			for _, ent := range e.sweepAll() {
				e.settle(ent, nil, Outcome{Status: StatusFailed, Err: ErrEngineClosed, Attempts: ent.attempts})
			}
			return
		case reply := <-e.flush:
			e.runIfDue(true)
			reply <- struct{}{}
		case msg := <-e.drainq:
			if msg.abort {
				// Terminal: no further runs — whatever remains (or arrives
				// late) is failed, never executed.
				e.abortPoolForDrain()
			} else {
				e.runIfDue(true)
			}
			msg.reply <- len(e.pool) + len(e.arrivalq)
		case <-e.wake:
			e.runIfDue(false)
		case <-ticker.C:
			e.runIfDue(true)
		}
	}
}

// runIfDue is the scheduler core: every run — arrival-, tick-, Flush- or
// wake-triggered — is formed here and differs only in the batch it selects
// (selectBatch). It ingests queued arrivals one at a time; every
// RunFrequency-th ingested arrival triggers a run, executed synchronously
// before further ingestion — so runs cannot coalesce and the f knob of
// §5.2.2 directly controls how many runs a stream of arrivals pays for.
// Such a run re-executes only what the arrivals can entangle with; force
// (retry tick, Flush, Drain) runs the whole dormant pool, per §4: "include
// in a run all transactions present in the dormant pool", so pending
// transactions are retried and timeouts expire. With neither, the run holds
// exactly the woken set.
//
// The pool is only touched from the scheduler goroutine.
func (e *Engine) runIfDue(force bool) {
	for {
		// The woken set is consumed before the ingest: requeueAborted queues
		// an entry before it wakes it, so every entry taken here is pooled
		// by the time selectBatch looks.
		e.mu.Lock()
		woken := e.woken
		e.woken = nil
		e.mu.Unlock()
		trigger := false
	ingest:
		for !trigger {
			select {
			case ent := <-e.requeueq:
				e.requeue(ent)
			case ent := <-e.arrivalq:
				if e.drainAborted {
					e.settle(ent, e.met.timeouts, Outcome{Status: StatusTimedOut, Err: ErrDraining, Attempts: ent.attempts})
					continue
				}
				e.pool = append(e.pool, ent)
				e.arrivals++
				if e.arrivals >= e.opts.RunFrequency {
					e.arrivals -= e.opts.RunFrequency
					trigger = true
				}
			default:
				break ingest
			}
		}
		// Expire timeouts — §3.1: a transaction whose entangled query
		// cannot succeed before the timeout expires cannot complete.
		now := time.Now()
		kept := e.pool[:0]
		for _, ent := range e.pool {
			if now.After(ent.deadline) {
				e.settle(ent, e.met.timeouts, Outcome{Status: StatusTimedOut, Err: ErrTimeout, Attempts: ent.attempts})
			} else {
				kept = append(kept, ent)
			}
		}
		e.pool = kept
		batch, rest := e.selectBatch(woken, trigger, force)
		if trigger || force {
			for _, ent := range batch {
				ent.abortWoken = false
			}
		}
		force = false
		if len(batch) == 0 {
			return
		}
		e.pool = rest
		e.executeRun(batch)
	}
}

// requeue returns an entry to the pool (or expires it).
func (e *Engine) requeue(ent *pending) {
	now := time.Now()
	if now.After(ent.deadline) {
		e.settle(ent, e.met.timeouts, Outcome{Status: StatusTimedOut, Err: ErrTimeout, Attempts: ent.attempts})
		return
	}
	e.bump(e.met.requeues)
	ent.enqueued = now // the next submit span measures this pool wait
	// Called from the scheduler goroutine only (finalize, requeueq ingest),
	// so appending to the pool directly is safe.
	e.pool = append(e.pool, ent)
}

func (e *Engine) nextOpID() uint64 {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.nextOp++
	e.met.entangleOps.Add(1)
	return e.nextOp
}

// drainMsg asks the scheduler to execute one forced run (and, with abort
// set, to fail whatever remains pooled). The reply is the number of
// transactions still pending afterwards.
type drainMsg struct {
	abort bool
	reply chan int
}

// Drain stops intake and gives every pooled transaction a final chance to
// complete: new Submits fail with ErrEngineClosed, then the scheduler
// executes forced runs until the pool is empty or a run makes no progress
// (the pool did not shrink — every remaining transaction is waiting for a
// partner that can no longer arrive). Stragglers are then aborted
// deterministically with StatusTimedOut/ErrDraining, mirroring a timeout
// cut short, instead of the blanket ErrEngineClosed failure of a bare
// Close. Drain is terminal: the engine never accepts work again, and the
// usual Close must still follow. Returns ctx.Err() when the deadline
// expired before the pool emptied (remaining work is still aborted).
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrEngineClosed
	}
	e.draining = true
	e.mu.Unlock()

	prev := -1
	for {
		if err := ctx.Err(); err != nil {
			e.drainStep(true)
			return err
		}
		n := e.drainStep(false)
		if n == 0 {
			// Seal: a Submit racing the draining check may still publish to
			// arrivalq after this count; the abort step marks the scheduler
			// so such stragglers are failed at ingestion, never run.
			e.drainStep(true)
			return nil
		}
		if prev >= 0 && n >= prev {
			// No progress: nothing committed or left the pool this round.
			e.drainStep(true)
			return nil
		}
		prev = n
	}
}

// drainStep runs one scheduler round on the drain channel; the engine may
// already be closed (racing Close), in which case there is nothing to do.
func (e *Engine) drainStep(abort bool) int {
	msg := drainMsg{abort: abort, reply: make(chan int, 1)}
	select {
	case e.drainq <- msg:
		return <-msg.reply
	case <-e.done:
		return 0
	}
}

// abortPoolForDrain fails everything still pooled (scheduler goroutine
// only) and marks the engine so late-slipping arrivals fail at ingestion.
func (e *Engine) abortPoolForDrain() {
	e.drainAborted = true
	for _, ent := range e.sweepAll() {
		e.settle(ent, e.met.timeouts, Outcome{Status: StatusTimedOut, Err: ErrDraining, Attempts: ent.attempts})
	}
}

// sweepAll empties the pool and both intake queues (scheduler goroutine
// only) and returns every entry they held, for a terminal settle.
func (e *Engine) sweepAll() []*pending {
	pool := e.pool
	e.pool = nil
	for {
		select {
		case ent := <-e.arrivalq:
			pool = append(pool, ent)
		case ent := <-e.requeueq:
			pool = append(pool, ent)
		default:
			return pool
		}
	}
}
